"""lp_max_min against the per-coordinate pinning scheme it replaced.

The oracle solves one level LP, then one more LP per active coordinate to find
the coordinates that cannot exceed the level value anywhere on the optimal
face, and pins those. On a bounded family both must return the unique
leximin point, with rational equality.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqcurv.linalg
from eqcurv import (
    Graph,
    LpUnboundedError,
    apsp,
    generate,
    lp_max_min,
    parse_family_spec,
    solve_exact,
)
from eqcurv.linalg import _simplex_max


def lp_max_min_oracle(particular, nullspace) -> tuple[Fraction, ...]:
    """Level LP plus one pinning LP per active coordinate (O(n) LPs per level)."""
    p = [Fraction(x) for x in particular]
    basis = [[Fraction(x) for x in vec] for vec in nullspace]
    n = len(p)
    k = len(basis)
    if k == 0:
        return tuple(p)

    def w_of(coef: list[Fraction]) -> list[Fraction]:
        return [p[i] + sum(coef[j] * basis[j][i] for j in range(k)) for i in range(n)]

    bounds: list[Fraction | None] = [None] * n
    coef = [Fraction(0)] * k
    for _level in range(n + 1):
        active = [i for i in range(n) if bounds[i] is None]
        if not active:
            break
        w = w_of(coef)
        t0 = min(w[i] for i in active)
        rows = []
        rhs = []
        for i in range(n):
            row = [-basis[j][i] for j in range(k)]
            if bounds[i] is None:
                row.append(Fraction(1))
                rhs.append(w[i] - t0)
            else:
                row.append(Fraction(0))
                rhs.append(w[i] - bounds[i])
            rows.append(row)
        status, x, _ = _simplex_max(rows, rhs, [Fraction(0)] * k + [Fraction(1)])
        if status == "unbounded":
            delta = x[:k]
            direction = tuple(sum(delta[j] * basis[j][i] for j in range(k)) for i in range(n))
            if all(bound is None for bound in bounds):
                raise LpUnboundedError("min_i w_i is unbounded over the affine family", direction)
            return tuple(w_of(coef))
        t_level = t0 + x[k]
        coef = [coef[j] + x[j] for j in range(k)]
        w = w_of(coef)

        # pin the coordinates that cannot exceed t_level anywhere in the
        # remaining region
        req = [bounds[i] if bounds[i] is not None else t_level for i in range(n)]
        rows2 = [[-basis[j][i] for j in range(k)] for i in range(n)]
        rhs2 = [w[i] - req[i] for i in range(n)]
        pinned = False
        for i in active:
            if w[i] > t_level:
                continue
            status2, x2, _ = _simplex_max(rows2, rhs2, [basis[j][i] for j in range(k)])
            if status2 == "unbounded":
                continue
            if w[i] + sum(x2[j] * basis[j][i] for j in range(k)) == t_level:
                bounds[i] = t_level
                pinned = True
        assert pinned, "the level optimum pins at least one coordinate"
    return tuple(bounds)


def outcome(fn, particular, basis):
    try:
        return fn(particular, basis)
    except LpUnboundedError:
        return "unbounded"


def in_family(w, particular, basis) -> bool:
    """Whether ``w - particular`` is a combination of the basis vectors."""
    diff = [Fraction(x) - Fraction(p) for x, p in zip(w, particular)]
    gram = [[sum(Fraction(a) * b for a, b in zip(u, v)) for v in basis] for u in basis]
    rhs = [sum(Fraction(a) * d for a, d in zip(u, diff)) for u in basis]
    coef = solve_exact(gram, rhs).solution  # normal equations: always consistent
    return all(sum(c * vec[i] for c, vec in zip(coef, basis)) == diff[i] for i in range(len(diff)))


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def families(draw, zero_sum: bool):
    """(particular, basis): n <= 8, k <= 5, some vectors combinations of earlier ones."""
    n = draw(st.integers(1, 8))
    particular = draw(st.lists(fractions, min_size=n, max_size=n))
    basis: list[list[Fraction]] = []
    for _ in range(draw(st.integers(1, 5))):
        if basis and draw(st.booleans()):
            u, v = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            basis.append([a * x + b * y for x, y in zip(u, v)])
        elif zero_sum:
            head = draw(st.lists(fractions, min_size=n - 1, max_size=n - 1))
            basis.append(head + [-sum(head, Fraction(0))])
        else:
            basis.append(draw(st.lists(fractions, min_size=n, max_size=n)))
    return particular, basis


@settings(max_examples=150, deadline=None)
@given(families(zero_sum=True))
def test_matches_oracle_on_bounded_families(family):
    # every kernel vector sums to 0, so sum(w) is constant and min_i w_i <= mean
    particular, basis = family
    assert lp_max_min(particular, basis) == lp_max_min_oracle(particular, basis)


@settings(max_examples=100, deadline=None)
@given(families(zero_sum=False))
def test_possibly_unbounded_families_agree_on_level_one(family):
    # families that may be unbounded: both raise together; otherwise the level-1
    # value is canonical, and the point lies in the family
    particular, basis = family
    ours = outcome(lp_max_min, particular, basis)
    theirs = outcome(lp_max_min_oracle, particular, basis)
    assert (ours == "unbounded") == (theirs == "unbounded")
    if ours != "unbounded":
        assert min(ours) == min(theirs)
        assert in_family(ours, particular, basis)


def cycle_with_tail(m: int, tail: int) -> Graph:
    """C_2m with a pendant path of ``tail`` vertices attached at vertex 0."""
    cycle = generate(parse_family_spec(f"cycle:{2 * m}"))
    path = [(0, 2 * m)] + [(v, v + 1) for v in range(2 * m, 2 * m + tail - 1)]
    return Graph(2 * m + tail, frozenset(cycle.edges | set(path)))


def distance_family(g: Graph):
    dm = apsp(g)
    out = solve_exact(dm.entries, [g.n] * g.n)
    assert dm.constant_row_sum() is None and out.nullspace
    return out.solution, out.nullspace


@pytest.mark.parametrize("m", range(4, 11))
@pytest.mark.parametrize("tail", [1, 2, 3])
def test_matches_oracle_on_cycle_with_tail(m, tail):
    particular, basis = distance_family(cycle_with_tail(m, tail))
    assert lp_max_min(particular, basis) == lp_max_min_oracle(particular, basis)


@pytest.mark.parametrize("spec", ["knight_board:3,4", "knight_board:4,4", "knight_board:5,8"])
def test_matches_oracle_on_knight_boards(spec):
    particular, basis = distance_family(generate(parse_family_spec(spec)))
    assert lp_max_min(particular, basis) == lp_max_min_oracle(particular, basis)


@pytest.mark.parametrize(
    "g",
    [cycle_with_tail(15, 1), generate(parse_family_spec("knight_board:6,9"))],
    ids=["C30+1", "knight_board:6,9"],
)
def test_at_most_k_plus_one_simplex_solves(g, monkeypatch):
    particular, basis = distance_family(g)
    calls = []

    def counting(*args):
        calls.append(1)
        return _simplex_max(*args)

    monkeypatch.setattr(eqcurv.linalg, "_simplex_max", counting)
    lp_max_min(particular, basis)
    assert 1 <= len(calls) <= len(basis) + 1
