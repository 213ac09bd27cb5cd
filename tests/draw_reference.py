"""Per-call seeded draws: the loop that ``eqcurv.graphs._random_block`` replaced.

Kept as a differential oracle for the block draw. ``reference_erdos_renyi``
calls ``rng.random()`` once per vertex pair in ``combinations`` order;
``_erdos_renyi`` must give the same graphs. The module name has no ``test_``
prefix, so pytest does not collect it.
"""

import random
from itertools import combinations

from eqcurv.graphs import FamilySpecError, Graph, is_connected


def reference_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    # resample until connected; all draws come from one seeded stream so the
    # result is a deterministic function of (n, p, seed)
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    for _ in range(1000):
        edges = frozenset(pair for pair in pairs if rng.random() < p)
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise FamilySpecError(f"no connected graph found in 1000 draws (n={n}, p={p})")
