"""The integer rule of ``eqcurv.linalg`` at both sides of every bound it states.

An integer array is int64 exactly while a stated bound rules out overflow,
and Python ints past it, from ``solve_exact``'s outcome through the max-min
LP. Each bound is checked just below and just at its limit: the dtype the
rule picks, and every value against Python ints or Fractions computed here.
"""

from fractions import Fraction

import numpy as np
import pytest
from integer_form import assert_integer_array

from eqcurv import linalg, lp_max_min, solve_exact
from eqcurv.linalg import _simplex_max

LIMIT = 2**63


def unreachable(*args):
    raise AssertionError("the fallback ran")


@pytest.mark.parametrize("v", [LIMIT - 1, LIMIT, -(LIMIT - 1), -LIMIT])
def test_fallback_numerators_at_the_int64_bound(v):
    # |b| is past the float screen, so the fallback solves x = v; its
    # numerators are int64 exactly while |v| < 2^63
    out = solve_exact([[1]], [v])
    assert (out.num.tolist(), out.den) == ([[v]], 1)
    assert_integer_array(out.num, abs(v) < LIMIT)
    assert out.solution == (Fraction(v),)


# three primes below 2^20: diag(P) x = (b, 1, 1) has den = p1 p2 p3 and
# numerators (b p2 p3, p1 p3, p1 p2)
P = (1048573, 1048571, 1048559)
B_BELOW = (LIMIT - 1) // (P[1] * P[2])


@pytest.mark.parametrize("b", [B_BELOW, B_BELOW + 1])
def test_float_route_numerators_at_the_int64_bound(monkeypatch, b):
    # the float route reconstructs the numerators and puts them in int64
    # before its checks exactly when they are below 2^63
    p1, p2, p3 = P
    expected = [[b * p2 * p3], [p1 * p3], [p1 * p2]]
    assert (expected[0][0] < LIMIT) == (b == B_BELOW)
    monkeypatch.setattr(linalg, "_solve_fraction_free", unreachable)
    out = solve_exact(np.diag(P), [b, 1, 1])
    assert (out.num.tolist(), out.den) == (expected, p1 * p2 * p3)
    assert_integer_array(out.num, b == B_BELOW)
    assert_integer_array(out.particular[0], b == B_BELOW)


@pytest.mark.parametrize("v", [LIMIT - 1, LIMIT])
def test_kernel_rows_at_the_int64_bound(v):
    # kernel entries and den are those of the rows before the gcd division:
    # [[1, v], [0, 0]] has kernel row (-v, 1), [[v, 1], [0, 0]] has (-1, v)
    # over den = v
    for matrix, row in (([[1, v], [0, 0]], [-v, 1]), ([[v, 1], [0, 0]], [-1, v])):
        out = solve_exact(matrix, [0, 0])
        assert out.kernel_rows.tolist() == [row]
        assert_integer_array(out.kernel_rows, v < LIMIT)
        assert out.nullspace == (tuple(Fraction(x, row[1]) for x in row),)


@pytest.mark.parametrize("v", [(LIMIT - 1) // 2, LIMIT // 2])
def test_kernel_sums_at_the_int64_bound(v):
    # kernel vector (v, v, 1) over rank 2: the column sum 2 v of num is within
    # rank |num|, int64 while that is below 2^63; at 2 v = 2^63 int64 would
    # wrap to -2^63
    out = solve_exact([[1, 0, -v], [0, 1, -v], [0, 0, 0]], [0, 0, 0])
    assert out.num.dtype == np.int64 and out.num[:, 1].tolist() == [v, v]
    assert out.kernel_sum_numerators == [(2 * v + 1) * out.den]
    assert [Fraction(s, out.den) for s in out.kernel_sum_numerators] == [Fraction(2 * v + 1)]
    assert all(type(s) is int for s in out.kernel_sum_numerators)


@pytest.mark.parametrize("v", [2**31 - 1, 2**31])
def test_tableau_starts_in_the_dtype_of_its_bound(v):
    # no column enters, so the set-up alone picks the dtype: int64 exactly
    # while 2 max(|A|, |b|, |c|)^2 < 2^63
    x, y, d, face = _simplex_max(np.zeros((1, 0), dtype=np.int64), [v], [])
    assert (x.tolist(), y.tolist(), d, face.shape) == ([], [0], 1, (0, 0))
    assert_integer_array(y, 2 * v * v < LIMIT)


@pytest.mark.parametrize("v", [2**62 - 1, 2**62])
def test_level_shift_at_the_int64_bound(v):
    # w_F - t0 is within 2 |w|: at |w| = 2^62 it passes 2^63 - 1 and is
    # formed on Python ints; the point is 0, where the gcd is den itself
    nums, den = lp_max_min(([v, -v], 1), [[1, -1]])
    assert (nums.tolist(), den) == ([0, 0], 1) and type(den) is int


def test_zero_point_over_a_denominator_past_int64():
    nums, den = lp_max_min((np.zeros(2, dtype=np.int64), 2**70), [[1, -1]])
    assert (nums.tolist(), den) == ([0, 0], 1) and nums.dtype == np.int64


def level_bound(nums, dirs) -> int:
    """The bound of lp_max_min's first level, on Python ints: |F| top (d |w| + k top |dirs|)."""
    free = [i for i in range(len(nums)) if any(row[i] for row in dirs)]
    k, t0 = len(dirs), min(nums[i] for i in free)
    a = [[-row[i] for row in dirs] + [1] for i in free]
    x, y, d, face = _simplex_max(a, [nums[i] - t0 for i in free], [0] * k + [1])
    top = max([d] + [abs(int(v)) for v in [*x.flat, *y.flat, *face.flat]])
    dirs_max = max(abs(v) for row in dirs for v in row)
    return len(free) * top * (d * max(map(abs, nums)) + k * top * dirs_max)


def last_int64_level(lo: int, hi: int) -> int:
    """The largest q in [lo, hi) whose family ``(0, 2q) + c (1, -1)`` has its level bound below 2^63."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if level_bound([0, 2 * mid], [[1, -1]]) < LIMIT else (lo, mid)
    return lo


@pytest.mark.parametrize("side", [0, 1])
def test_level_products_at_the_int64_bound(side):
    # the leximin point of (0, 2q) + c (1, -1) is (q, q); every product of the
    # level runs in int64 exactly while the level bound is below 2^63
    q = last_int64_level(1, 2**40) + side
    assert (level_bound([0, 2 * q], [[1, -1]]) < LIMIT) == (side == 0)
    nums, den = lp_max_min(([0, 2 * q], 1), [[1, -1]])
    assert [Fraction(v, den) for v in nums.tolist()] == [q, q]
    assert_integer_array(nums, side == 0)
