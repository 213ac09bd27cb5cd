"""The block draw against the per-call seeded draws it replaced.

``draw_reference.py`` keeps the loop that calls ``rng.random()`` once per
vertex pair. The block draw must return the same floats and leave the
generator in the same state, so every seed gives the same graphs as before.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from draw_reference import reference_erdos_renyi
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcurv import FamilySpec, generate
from eqcurv.graphs import FamilySpecError, Graph, _erdos_renyi, _random_block, is_connected

SEEDS = st.integers(0, 2**64 - 1)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 600), seed=SEEDS, words_before=st.integers(0, 3))
def test_random_block_equals_calls_of_random(m, seed, words_before):
    block_rng, call_rng = random.Random(seed), random.Random(seed)
    # start at an odd 32-bit word as well as an even one
    for rng in (block_rng, call_rng):
        rng.getrandbits(32 * words_before)
    block = _random_block(block_rng, m)
    calls = np.array([call_rng.random() for _ in range(m)], dtype=float)
    assert block.dtype == np.float64 and block.shape == (m,)
    assert block.tobytes() == calls.tobytes()
    assert block_rng.getstate() == call_rng.getstate()


def erdos_renyi_outcome(draw, n: int, p: float, seed: int):
    """The edge set, or the error when no connected graph turns up."""
    try:
        return draw(n, p, seed).edges
    except FamilySpecError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200), p=st.floats(0.9, 1.0), seed=SEEDS)
def test_erdos_renyi_near_one_matches_reference(n, p, seed):
    assert _erdos_renyi(n, p, seed).edges == reference_erdos_renyi(n, p, seed).edges


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), p=st.floats(0.0, 0.05), seed=SEEDS)
def test_erdos_renyi_near_zero_matches_reference(n, p, seed):
    # most of these resample many times, and some give up after 1000 draws
    assert erdos_renyi_outcome(_erdos_renyi, n, p, seed) == erdos_renyi_outcome(
        reference_erdos_renyi, n, p, seed
    )


def first_draw_is_connected(n: int, p: float, seed: int) -> bool:
    rng = random.Random(seed)
    edges = frozenset(pair for pair in combinations(range(n), 2) if rng.random() < p)
    return is_connected(Graph(n, edges))


@pytest.mark.parametrize("n, p", [(12, 0.2), (40, 0.1), (120, 0.04), (200, 0.03)])
def test_erdos_renyi_resampled_seeds_match_reference(n, p):
    seeds = [s for s in range(40) if not first_draw_is_connected(n, p, s)][:5]
    assert seeds, "no seed in range needs a second draw"
    for seed in seeds:
        g = generate(FamilySpec("erdos_renyi", (n, p, seed)))
        assert g.edges == reference_erdos_renyi(n, p, seed).edges
