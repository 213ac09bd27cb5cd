"""Per-call seeded draws: the loops that ``eqcurv.graphs._random_block`` replaced.

Kept as differential oracles for the block draw. ``reference_erdos_renyi``
calls ``rng.random()`` once per vertex pair in ``combinations`` order, and
``reference_simplex_measures`` calls ``rng.expovariate(1.0)`` once per entry;
``_erdos_renyi`` and ``simplex_measures`` must give the same graphs and the
same measures byte for byte. The module name has no ``test_`` prefix, so
pytest does not collect it.
"""

import random
from itertools import combinations

import numpy as np

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


def reference_simplex_measures(n: int, count: int, seed: int) -> list[np.ndarray]:
    """Seeded random probability measures: normalized independent exponentials."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        e = [rng.expovariate(1.0) for _ in range(n)]
        s = sum(e)
        out.append(np.array([x / s for x in e]))
    return out
