"""Exact products and the certificates behind the exact statuses, against plain Python ints.

``integer_matmul`` multiplies on float64 BLAS, exact while every partial
sum is an integer below 2^53, cutting wide right-hand sides into limbs;
``compute_curvature`` reads ``K``, ``total`` and the residual range of
every result off one integer point: the solution ``solve_exact`` certified,
the canonical max-min point, or the exact pseudo solution. Both are checked
here against arithmetic that shares no code with them.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqcurv.curvature as curvature_module
from eqcurv import (
    CurvatureStatus,
    Graph,
    check_theorem5,
    compute_curvature,
    generate,
    parse_family_spec,
    spectral_gap,
)
from eqcurv.linalg import _columns_hold, _lift_float, integer_matmul, lp_max_min

CUTOVER = 2**52  # integer_matmul cuts x into float64 limbs while |a| k is below this


def python_matmul(a, x):
    """``a @ x`` on nested lists of Python ints, x 1-D or 2-D."""
    a, x = a.tolist(), x.tolist()
    if x and not isinstance(x[0], list):
        return [sum(p * q for p, q in zip(row, x)) for row in a]
    return [[sum(row[t] * x[t][c] for t in range(len(x))) for c in range(len(x[0]))] for row in a]


# right-hand side entries: zeros, small values, values of 40 to 62 bits around
# the one-product bound 2^53, and numerators of 63 to 400 bits
wide_entries = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.integers(40, 62).flatmap(lambda b: st.integers(-(2**b), 2**b)),
    st.integers(63, 400).flatmap(lambda b: st.integers(-(2**b), 2**b)),
)


@st.composite
def matmul_inputs(draw):
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    # |a| k just below the cutover (limbs), at or above it (Python ints), small,
    # around 2^62 and 2^63, or huge
    a_max = draw(st.sampled_from(
        [0, 1, 7, (CUTOVER - 1) // k, -(-CUTOVER // k), (2**62 - 1) // k, -(-(2**62) // k),
         2**61, 2**70]
    ))
    a = [[draw(st.integers(-a_max, a_max)) for _ in range(k)] for _ in range(m)]
    a[0][0] = draw(st.sampled_from([a_max, -a_max]))  # the bound is attained
    a = np.array(a, dtype=object)
    if a_max < 2**63 and draw(st.booleans()):
        a = a.astype(np.int64)
    shape = (k,) if draw(st.booleans()) else (k, draw(st.integers(1, 4)))
    x = np.array(draw(st.lists(wide_entries, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape)))), dtype=object).reshape(shape)
    if np.abs(x).max() < 2**63 and draw(st.booleans()):
        x = x.astype(np.int64)
    return a, x


@settings(max_examples=400, deadline=None)
@given(matmul_inputs())
def test_integer_matmul_matches_python_ints(inputs):
    a, x = inputs
    got = integer_matmul(a, x)
    assert got.shape == a.shape[:1] + x.shape[1:]
    assert got.tolist() == python_matmul(a, x)


@pytest.mark.parametrize("k", [1, 3, 180])
@pytest.mark.parametrize("side", [-1, 0])
def test_integer_matmul_on_both_sides_of_the_cutover(k, side):
    # |a| k == 2^52 - 1 runs on limbs, |a| k >= 2^52 on Python ints; the same
    # two sides of 2^62 are ordinary Python-int inputs
    for cutover in (CUTOVER, 2**62):
        a_max = (cutover - 1) // k if side < 0 else -(-cutover // k)
        a = np.full((2, k), a_max, dtype=np.int64)
        a[1, ::2] = -a_max
        x = np.array([[(-1) ** t * (2**400 - t), 0, -(2**63) + t] for t in range(k)], dtype=object)
        assert integer_matmul(a, x).tolist() == python_matmul(a, x)
        assert integer_matmul(a, x[:, 0]).tolist() == python_matmul(a, x[:, 0])


# (|a|, |x|, k) with |a| |x| k == 2^53 - 1 = 6361 * 69431 * 20394401: one
# float64 product, returned as int64
BELOW_ONE_PRODUCT = [(1, 2**53 - 1, 1), (6361, 69431 * 20394401, 1), (6361 * 69431, 20394401, 1),
                     (69431, 20394401, 6361)]
# |a| |x| k == 2^53: two limbs, whose products one int64 run of
# _combine_digits joins, or Python ints throughout where |a| k reaches 2^52
AT_ONE_PRODUCT = [(1, 2**53, 1, np.int64), (2**26, 2**27, 1, np.int64), (2**20, 2**31, 4, np.int64),
                  (2**50, 1, 8, object)]


@pytest.mark.parametrize("a_max, x_max, k, dtype", [(*t, np.int64) for t in BELOW_ONE_PRODUCT] + AT_ONE_PRODUCT)
def test_integer_matmul_at_the_one_product_bound(a_max, x_max, k, dtype):
    # every row sum of |a| |x| reaches the bound: the first and last rows at
    # +-|a| |x| k, the others mixed in sign
    assert a_max * x_max * k in (2**53 - 1, 2**53)
    a = np.full((3, k), a_max, dtype=np.int64)
    a[1, ::2] = -a_max
    a[2] = -a_max
    x = np.array([[x_max, -x_max][t % 2] for t in range(k)], dtype=np.int64)
    for xs in (np.abs(x), x, np.stack([np.abs(x), x, -np.abs(x)], axis=1)):
        got = integer_matmul(a, xs)
        assert got.dtype == dtype
        assert got.tolist() == python_matmul(a, xs)
        assert np.abs(got).max() == a_max * x_max * k


@pytest.mark.parametrize("k", [1, 3, 4])
def test_integer_matmul_at_the_limb_bound(k):
    # |a| k == 2^52 - 1 cuts x into 1-bit limbs; |a| k == 2^52 leaves no bit
    # for a limb and runs on Python ints
    for a_max in ((2**52 - 1) // k, 2**52 // k):
        a = np.full((2, k), a_max, dtype=np.int64)
        a[1, 1::2] = -a_max
        x = np.array([[(-1) ** t * (2**200 - t), 2**53 + t, 3] for t in range(k)], dtype=object)
        got = integer_matmul(a, x)
        assert got.dtype == object
        assert got.tolist() == python_matmul(a, x)
        assert integer_matmul(a, x[:, 1]).tolist() == python_matmul(a, x[:, 1])


def test_integer_matmul_on_uint64_inputs():
    top = np.iinfo(np.uint64).max
    a = np.array([[top, 1], [2**53, 0], [3, 2**63]], dtype=np.uint64)
    x = np.array([[top, 0], [2**63 + 5, 7]], dtype=np.uint64)
    small = np.array([[1, 2], [3, 4]], dtype=np.uint64)
    for lhs, rhs in ((a, x), (a, x[:, 0]), (small, x), (small, small), (small, small[:, 1])):
        assert integer_matmul(lhs, rhs).tolist() == python_matmul(lhs, rhs)
    assert integer_matmul(small, small).dtype == np.int64


def test_integer_matmul_of_a_huge_a_times_zero():
    # the |a| term of the one-product bound keeps 2^1100 out of float64,
    # which cannot hold it even when x is all zeros
    huge = np.array([[2**1100, 1]], dtype=object)
    mixed = np.array([[1, -(2**1100)], [0, 3]], dtype=object)
    for a, x in ((huge, np.zeros(2, dtype=np.int64)), (huge, np.array([0, 0], dtype=object)),
                 (mixed, np.zeros((2, 3), dtype=np.int64))):
        assert integer_matmul(a, x).tolist() == python_matmul(a, x)


def test_integer_matmul_on_an_object_dtype_a():
    x = np.array([2**300 + 1, -(2**200), 0], dtype=object)
    for a in (np.array([[1, -2, 3], [0, 4, -5]], dtype=object),
              np.array([[2**80, -1, 3], [0, 2**70, -5]], dtype=object)):
        assert integer_matmul(a, x).tolist() == python_matmul(a, x)


def test_integer_matmul_with_no_rows():
    # the certificate on the rows outside the pivot block, when there are none
    x = np.array([[2**300, -1], [0, 2**70], [-(2**90), 5]], dtype=object)
    for a in (np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3), dtype=object)):
        assert integer_matmul(a, x).shape == (0, 2)
        assert integer_matmul(a, x[:, 0]).shape == (0,)


@pytest.mark.parametrize("den, target", [(2**32, 2**31), (2**32, -(2**31) - 5), (2**40, 3 * 2**30)])
def test_columns_hold_past_int64_in_den_times_rhs(den, target):
    # den and |rhs| are each below 2^63 but den |rhs| is not: the certificate
    # must form den * rhs on Python ints, where int64 would wrap it
    assert den * abs(target) >= 2**63
    lhs = np.array([[1, 0], [0, 1]], dtype=np.int64)
    rhs = np.array([[target, target], [1, -target]], dtype=np.int64)
    good = np.array([[den * target, den * target], [den, -den * target]], dtype=object)
    wrapped = good.copy()
    wrapped[0, 1] = (den * target + 2**63) % 2**64 - 2**63
    for x in (good, wrapped):
        expected = [all(x[i][j] == den * int(rhs[i][j]) for i in range(2)) for j in range(2)]
        assert _columns_hold(lhs, x, den, rhs).tolist() == expected
    assert expected == [True, False]


@pytest.mark.parametrize(
    "entries, nums",
    [
        # the numerators of a rational w over the lcm of its denominators, as
        # check_theorem5 forms them; |D| |num| n just below 2^63: one int64 product
        (np.ones((2, 2), dtype=np.int64), [2**62 - 1] * 2),  # w = 2^62 - 1
        (np.ones((2, 2), dtype=np.int64), [-(2**62) + 1] * 2),  # w = (1 - 2^62)/3
        # exactly 2^63 and above: int64 would wrap 2^62 + 2^62
        (np.ones((2, 2), dtype=np.int64), [2**62] * 2),  # w = 2^62
        (np.ones((2, 2), dtype=np.int64), [3 * 2**62, 5 * 2**62]),  # w = (2^62/5, 2^62/3)
        (np.array([[0, 3], [3, 0]]), [7 * 2**61, -(2**62)]),  # w = (2^61, -2^62/7)
        (np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), [2**71, 6, -3]),  # w = (2^70/3, 1, -1/2)
    ],
)
def test_integer_matmul_on_numerators_at_the_int64_bound(entries, nums):
    x = np.array(nums, dtype=object)
    assert integer_matmul(entries, x).tolist() == python_matmul(entries, x)


def test_theorem5_exact_bound_past_int64_matches_fractions():
    # a positive w with mixed denominators whose numerator product D nums
    # passes 2^63; the bounds are checked against plain Fraction arithmetic
    g = generate(parse_family_spec("path:5"))
    w = [Fraction(2**62, 3), Fraction(2**61, 5), Fraction(1, 7), np.int64(2**62),
         Fraction(2**63 + 1, 11)]
    w_q = w[:3] + [Fraction(2**62)] + w[4:]
    rows = g.distance_matrix.entries.tolist()
    den = lcm(*(x.denominator for x in w_q))
    assert max(abs(sum(d * x * den for d, x in zip(row, w_q))) for row in rows) >= 2**63
    dw_inf = max(abs(sum((d * x for d, x in zip(row, w_q)), Fraction(0))) for row in rows)
    k_val = min(w_q)
    report = check_theorem5(g, w, spectral_gap(g))
    diam_check, lam_check = report.checks
    assert diam_check.exact_arithmetic
    assert Fraction(diam_check.rhs.exact) == (dw_inf / g.n) * 8 / k_val
    assert diam_check.holds == (4 <= (dw_inf / g.n) * 8 / k_val)
    assert Fraction(lam_check.rhs.exact) == k_val / (8 * dw_inf)


def test_lift_returns_int64_numerators_that_solve_the_system():
    m = np.array([[2, 1, 0], [1, 3, 1], [0, 1, 4]], dtype=np.int64)
    rhs = np.array([[1, 0], [2, -1], [3, 5]], dtype=np.int64)
    # scale >= max(k |M|, |rhs| / 4), log|det M| to time the attempts
    num, den = _lift_float(m, rhs, 3 * 4, np.linalg.slogdet(m.astype(np.float64))[1])
    assert num.dtype == np.int64
    assert python_matmul(m, num.astype(object)) == (den * rhs.astype(object)).tolist()


def atlas_and_random_graphs():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2 and nx.is_connected(h):
            yield Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))
    for spec in ("erdos_renyi:150,0.08,1", "erdos_renyi:165,0.06,2", "erdos_renyi:180,0.05,3"):
        yield generate(parse_family_spec(spec))


def test_exact_summary_matches_python_ints(monkeypatch):
    # every status builds K, total and the residual range from one integer
    # point; check each against w with arithmetic of its own, and the pseudo
    # solution of an inconsistent graph against the kernel sympy finds
    sp = pytest.importorskip("sympy")
    lp_calls = []

    def counting_lp(*args):
        lp_calls.append(1)
        return lp_max_min(*args)

    monkeypatch.setattr(curvature_module, "lp_max_min", counting_lp)
    counts = dict.fromkeys(CurvatureStatus, 0)
    constant = 0
    for g in atlas_and_random_graphs():
        result = compute_curvature(g)
        counts[result.status] += 1
        if result.status is CurvatureStatus.EXACT_CANONICAL:
            constant += g.distance_matrix.constant_row_sum() is not None
        w = result.w
        assert all(type(x) is Fraction for x in w)
        den = lcm(*(x.denominator for x in w))
        nums = [x.numerator * (den // x.denominator) for x in w]
        rows = g.distance_matrix.entries.tolist()
        dw = [Fraction(sum(d * v for d, v in zip(row, nums)), den) for row in rows]
        assert result.residual_range == (min(dw), max(dw))
        if result.is_exact:
            assert dw == [g.n] * g.n
        else:
            # D^+ (n * 1): the residual D w - n * 1 lies in ker D, and w is
            # orthogonal to every kernel vector
            residual = [x - g.n for x in dw]
            assert all(sum(d * r for d, r in zip(row, residual)) == 0 for row in rows)
            kernel = sp.Matrix(rows).nullspace()
            assert len(kernel) == result.nullspace_dimension >= 1
            assert all(sum(x * sp.Rational(v) for x, v in zip(w, z)) == 0 for z in kernel)
        assert result.K == min(w)
        assert result.total == sum(abs(x) for x in w)
        assert all(type(v) is Fraction for v in (result.K, result.total, *result.residual_range))
    # the atlas has 787 full-rank graphs, and the three random graphs are full
    # rank too; 206 atlas graphs are canonical, 4 of them with constant row
    # sums, and 2 are inconsistent
    assert counts[CurvatureStatus.EXACT_UNIQUE] == 787 + 3
    assert counts[CurvatureStatus.EXACT_CANONICAL] == 206
    assert counts[CurvatureStatus.INCONSISTENT] == 2
    assert (len(lp_calls), constant) == (202, 4)
