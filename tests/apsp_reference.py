"""Per-source BFS: the all-pairs shortest-path routine that ``eqcurv.graphs.apsp`` replaced.

Kept as a differential oracle for the matrix-product APSP. The module name has
no ``test_`` prefix, so pytest does not collect it; tests import
``reference_apsp`` from it. The BFS and its neighbour lists are private
copies, so the oracle shares nothing with ``eqcurv.graphs`` but the
``Graph``'s edge pairs, the ``DistanceMatrix`` container and the exception.
"""

from collections import deque

import numpy as np

from eqcurv.graphs import DisconnectedGraphError, DistanceMatrix, Graph


def _bfs(adjacency: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def reference_apsp(g: Graph) -> DistanceMatrix:
    """All-pairs shortest-path hop counts, one BFS per source vertex."""
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.pairs.tolist():
        adjacency[u].append(v)
        adjacency[v].append(u)
    rows = []
    for s in range(g.n):
        dist = _bfs(adjacency, s)
        if min(dist) < 0:
            raise DisconnectedGraphError("graph is disconnected; some distances are infinite")
        rows.append(dist)
    return DistanceMatrix(np.array(rows, dtype=np.int64))
