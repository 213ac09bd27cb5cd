"""The float64 shortcuts of ``solve_exact``'s float route, on both sides of their bounds.

``linalg._certificate`` checks the rounded inverse X in float64: it reads
``|X|`` and the row sums of ``|X|`` off float64 arrays, forms
``M X - 2^s I`` in float64 and sums its absolute rows there, where a single
entry of ``2^(s-1)`` already fails the row-sum bound. Each is exact,
or decides as exact integers would, only by a bound. Here each bound is met
just inside and just outside, and the result is compared with the same
checks in Python integers. Whole systems steered to the edges must still
give the fraction-free fallback's outcome. The lifting checks no bound in its
steps, so every step of many systems is replayed in Python ints against the
bounds that the certificate proves. The digit combination and the dyadic
reconstruction run in int64 below a bound and on Python ints past it; both
sides of each bound are compared with Python ints too.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqcurv import Graph, SolveStatus, generate, parse_family_spec, solve_exact
from eqcurv import linalg


def certificate_reference(m: list[list[int]], x: list[list[int]], s: int, scale: int):
    """``linalg._certificate``'s checks and values in Python integers."""
    n = len(m)
    if scale * max(abs(v) for row in x for v in row) >= 2**53:
        return None
    e = [[(1 << s) * (i == j) - sum(m[i][t] * x[t][j] for t in range(n)) for j in range(n)]
         for i in range(n)]
    delta = max(sum(abs(v) for v in row) for row in e)
    if 2 * delta >= 1 << s:
        return None
    return delta, max(sum(abs(v) for v in row) for row in x)


def certificate(m: list[list[int]], x: list[list[int]], s: int):
    """``linalg._certificate`` and its reference, with ``scale = n |M|``."""
    scale = len(m) * max(abs(v) for row in m for v in row)
    got = linalg._certificate(np.array(m, dtype=np.float64), np.array(x, dtype=np.float64), s, scale)
    assert got == certificate_reference(m, x, s, scale)
    return got


def shifted_identity(n: int, s: int, row: list[int]) -> list[list[int]]:
    """``2^s I - P`` with P zero but for its first row: M = I makes E = P."""
    x = [[(1 << s) * (i == j) for j in range(n)] for i in range(n)]
    x[0] = [x[0][j] - row[j] for j in range(n)]
    return x


# M = [[1, 1], [0, 1]], scale 2: X = c * [[1, -1], [0, 1]] gives M X = c I, and
# row 0 of |X| sums to 2c, so |X| and ||X||_inf meet 2^53 / scale and 2^53 together
UPPER = [[1, 1], [0, 1]]


def test_largest_x_below_the_float64_bound_is_read_exactly():
    c = 2**52 - 1  # scale |X| = 2^53 - 2
    x = [[c, -c], [0, c]]
    assert certificate(UPPER, x, 52) == (1, 2**53 - 2)


def test_x_at_the_float64_bound_is_refused():
    c = 2**52  # scale |X| = 2^53
    assert certificate(UPPER, [[c, -c], [0, c]], 52) is None


@pytest.mark.parametrize("sign", [1, -1])
def test_entry_of_e_just_below_half_is_accepted(sign):
    x = shifted_identity(3, 20, [sign * (2**19 - 1), 0, 0])
    # ||X||_inf is 2^20, or 2^20 + 2^19 - 1 when the shift pushes X_00 past it
    x_norm = 2**20 + 2**19 - 1 if sign < 0 else 2**20
    assert certificate(np.eye(3, dtype=int).tolist(), x, 20) == (2**19 - 1, x_norm)


@pytest.mark.parametrize("sign", [1, -1])
def test_entry_of_e_at_half_is_refused(sign):
    x = shifted_identity(3, 20, [sign * 2**19, 0, 0])
    assert certificate(np.eye(3, dtype=int).tolist(), x, 20) is None


def test_row_sum_of_e_just_below_half_is_accepted():
    # each entry is below 2^19; only the absolute row sum meets the bound
    x = shifted_identity(3, 20, [2**18, -2**17, 2**17 - 1])
    delta, _ = certificate(np.eye(3, dtype=int).tolist(), x, 20)
    assert delta == 2**19 - 1


def test_row_sum_of_e_at_half_is_refused():
    x = shifted_identity(3, 20, [2**18, -2**17, 2**17])
    assert certificate(np.eye(3, dtype=int).tolist(), x, 20) is None


def test_entry_of_e_past_2_53_rounds_but_is_still_refused():
    # M X - 2^52 = -(2^53 + 1), which float64 rounds to -2^53: still refused
    assert certificate([[1]], [[-(2**52 + 1)]], 52) is None


# ---------------------------------------------------------------------------
# whole systems at the edge of the step size: k = s - 2 - bitlen(delta) >= 4
# ---------------------------------------------------------------------------


def steered(monkeypatch, row: list[int]):
    """M = I_4 with LAPACK's inverse replaced by ``I - P 2^-50``; P's first row is ``row``.

    The largest entry of that inverse is 1, so s = 50, X = 2^50 I - P and
    E = P: delta is the absolute sum of ``row``, and ``bitlen(delta) <= 44``
    is exactly ``k >= 4``.
    """
    m = np.eye(4, dtype=np.int64)
    b = np.array([3, -1, 4, 16], dtype=np.int64)
    p = np.zeros((4, 4))
    p[0] = row

    def inverse(a):
        return np.eye(4) - np.ldexp(p, -50)

    monkeypatch.setattr(np.linalg, "inv", inverse)
    reference = linalg._solve_fraction_free(m, b)
    outcome = solve_exact(m, b)
    assert outcome.status is SolveStatus.UNIQUE
    assert outcome.den == reference[3] and (outcome.num == reference[2]).all()
    assert (outcome.num[:, 0] == b).all() and outcome.den == 1
    return linalg._solve_float(m, b), reference


def test_delta_just_below_the_step_bound_lifts(monkeypatch):
    found, reference = steered(monkeypatch, [2**42, -2**42, 2**43 - 1, 0])
    assert found is not None
    assert found[:2] == (reference[0], reference[1]) and found[3:] == reference[3:]
    assert (found[2] == reference[2]).all()


def test_delta_at_the_step_bound_is_refused(monkeypatch):
    found, _ = steered(monkeypatch, [2**42, -2**42, 2**43, 0])
    assert found is None


# ---------------------------------------------------------------------------
# Hadamard's cap, computed only once the predicted step count has passed
# ---------------------------------------------------------------------------


def distance_system(text: str):
    g = generate(parse_family_spec(text))
    return g.distance_matrix.entries.astype(np.int64), np.full(g.n, g.n, dtype=np.int64)


def test_an_underestimated_determinant_still_lifts_past_the_prediction(monkeypatch):
    # log|det M| read as 0 predicts a single step; the loop must go on past
    # it, under Hadamard's cap, to the solution
    m, b = distance_system("erdos_renyi:40,0.3,5")
    real_slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: (real_slogdet(a)[0], 0.0))
    found, reference = linalg._solve_float(m, b), linalg._solve_fraction_free(m, b)
    assert found is not None and found[3] == reference[3] and (found[2] == reference[2]).all()


def test_the_cap_ends_a_lifting_that_never_reconstructs(monkeypatch):
    m, b = distance_system("erdos_renyi:40,0.3,5")
    # log2 of Hadamard's bound on det(M)^2: the cap allows that many bits
    # plus the error's and a step's, far below twice as many
    hadamard = float(np.log2(np.square(m.astype(float)).sum(axis=1)).sum())
    attempts = []

    def never(acc, bits, *rest):
        if bits > 2 * hadamard:
            pytest.fail("the lifting ran on past Hadamard's cap")
        attempts[-1].append(bits)

    def lift_float(*args):
        attempts.append([])
        return real_lift_float(*args)

    real_lift_float = linalg._lift_float
    monkeypatch.setattr(linalg, "_reconstruct_dyadic", never)
    monkeypatch.setattr(linalg, "_lift_float", lift_float)
    assert linalg._solve_float(m, b) is None
    # M is symmetric, so the nonsingular lifting and then the steered one run;
    # each makes attempts at growing bit counts, the last one past Hadamard's bound
    assert len(attempts) == 2
    for bits in attempts:
        assert bits == sorted(bits) and bits[-1] > hadamard / 2


# ---------------------------------------------------------------------------
# every lifting step within the bounds that the certificate proves
# ---------------------------------------------------------------------------


def atlas_and_benchmark_size_systems():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2 and nx.is_connected(h):
            g = Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))
            yield g.distance_matrix.entries.astype(np.int64), np.full(g.n, g.n, dtype=np.int64)
    for text in ("erdos_renyi:100,0.1,1", "erdos_renyi:150,0.08,1", "erdos_renyi:180,0.05,3"):
        yield distance_system(text)


def assert_steps_within_the_proof(m, rhs, scale, s, x_norm, digits, k):
    """The proof's premise on k, then each step's digit and exact residual
    ``2^(k t) rhs - M N_t``, rebuilt in Python ints, within its conclusions."""
    assert 4 * x_norm * scale**2 << k < 1 << (s + 51)
    m = m.astype(object)
    r = rhs.astype(object)
    assert np.abs(r).max() <= 4 * scale
    for digit in digits:
        y = digit.reshape(rhs.shape).astype(object)
        assert scale * np.abs(y).max() < 2**52
        r = (r << k) - m.dot(y)
        assert np.abs(r).max() < 4 * scale


def test_every_lifting_step_keeps_the_proven_bounds(monkeypatch):
    # _lift_float checks no bound in its steps: solve_exact's Notes (step 3)
    # prove |r| < 4 scale and scale |y| < 2^52 from the certificate, once k
    # keeps 2^(k-s) ||X||_inf 4 scale^2 below 2^51. The digits reach
    # _combine_digits at every reconstruction; the last call of each lifting
    # holds all of its steps, so a change to s or k that breaks the proof
    # fails here instead of lifting on to Hadamard's cap
    real_lift, real_combine, real_matmul = linalg._lift_float, linalg._combine_digits, linalg.integer_matmul
    real_certificate = linalg._certificate
    lifts, caller = [], [None]

    def lift_float(m, rhs, scale, log_det):
        lifts.append([m, rhs, scale, None, None])
        caller[0] = lifts[-1]
        return real_lift(m, rhs, scale, log_det)

    def certificate(mf, x, s, scale):
        found = real_certificate(mf, x, s, scale)
        if found is not None:
            caller[0][3] = s, found[1]
        return found

    def integer_matmul(a, x):
        # the limbs of a certificate's product are joined by _combine_digits too
        lift, caller[0] = caller[0], None
        try:
            return real_matmul(a, x)
        finally:
            caller[0] = lift

    def combine_digits(digits, k):
        if caller[0] is not None:
            caller[0][4] = list(digits), k
        return real_combine(digits, k)

    monkeypatch.setattr(linalg, "_lift_float", lift_float)
    monkeypatch.setattr(linalg, "_certificate", certificate)
    monkeypatch.setattr(linalg, "_combine_digits", combine_digits)
    monkeypatch.setattr(linalg, "integer_matmul", integer_matmul)
    for m, b in atlas_and_benchmark_size_systems():
        solve_exact(m, b)
    joined = [lift for lift in lifts if lift[4] is not None]
    for m, rhs, scale, (s, x_norm), (digits, k) in joined:
        assert_steps_within_the_proof(m, rhs, scale, s, x_norm, digits, k)
    # one lifting per system, each reconstructed, the random ones in many steps
    assert len(lifts) == len(joined) == 998
    assert max(len(lift[4][0]) for lift in joined) > 20


# ---------------------------------------------------------------------------
# int64 digit combination and reconstruction, against Python ints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k, g", [(10, 2), (30, 2), (20, 3), (9, 2), (6, 5), (10, 3)])
def test_combine_digits_on_both_sides_of_the_int64_bound(k, g):
    # g digits per int64 run while top 2^(k (g - 1) + 1) < 2^63, top the digits'
    # largest magnitude: at the largest such top and one past it, which leaves
    # g - 1, every run count against Horner's rule on Python ints; int64 exactly
    # when one run holds every digit
    at = (1 << (62 - k * (g - 1))) - 1
    for top, per_run in ((at, g), (at + 1, g - 1)):
        for count in (1, per_run, per_run + 1, 2 * per_run + 1, 3 * per_run, 5 * per_run + 1):
            digits = [np.array([top, -top, (-1) ** j * top, (-1) ** (j // 2) * top, j % 3 - 1], dtype=np.int64)
                      for j in range(count)]
            got = linalg._combine_digits(digits, k)
            expected = [sum(int(d[i]) << (k * (count - 1 - j)) for j, d in enumerate(digits)) for i in range(5)]
            assert got.tolist() == expected
            assert got.dtype == (np.int64 if count <= per_run else object)


@st.composite
def dyadic_approximations(draw):
    """``(acc, bits, err, den)``: x_i = p_i / q_i approximated by ``acc_i / 2^bits`` within
    ``err / 2^bits``, on both sides of ``den |acc| + 2^bits < 2^63``."""
    bits = draw(st.integers(2, 70))
    err = draw(st.integers(1, 8))
    den = draw(st.sampled_from([1, 2, 3, 12, 971]))
    top = draw(st.sampled_from([2**bits, (2**63 - 2**bits) // den, 2**62]))
    top = min(max(top, 1), 2**63 - 1)
    acc = [draw(st.integers(-top, top)) for _ in range(draw(st.integers(1, 6)))]
    for i, x in enumerate(acc):
        if draw(st.booleans()):
            # an entry near a fraction with a small denominator
            q = draw(st.integers(1, 9))
            acc[i] = max(-top, min(top, ((x * q >> bits) << bits) // q))
    return acc, bits, err, den


@settings(max_examples=300, deadline=None)
@given(case=dyadic_approximations())
# at 63 bits 2^bits is past int64, so no int64 acc is walked in int64 however small
@example(case=([2**62, -3, 0], 63, 1, 1))
# den |acc| + 2^(bits-1) just past 2^63: num must leave int64
@example(case=([2**62, 1], 10, 1, 2))
def test_reconstruct_dyadic_in_int64_matches_python_ints(case):
    # the int64 walk and output must agree with the walk on Python ints
    acc, bits, err, den = case
    wide = linalg._reconstruct_dyadic(np.array(acc, dtype=object), bits, err, den)
    got = linalg._reconstruct_dyadic(np.array(acc, dtype=np.int64), bits, err, den)
    assert (got is None) == (wide is None)
    if got is not None:
        assert got[0].tolist() == wide[0].tolist() and got[1] == wide[1]
        fits = got[1] * max(abs(v) for v in acc) + 2 ** (bits - 1) < 2**63
        assert got[0].dtype == (np.int64 if fits else object)
