"""Exact solver, LAPACK-backed symmetric eigendecomposition, exact pseudo-inverse, and max-min LP."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from eqcurv import (
    FamilySpec,
    NonSymmetricMatrixError,
    SolveStatus,
    apsp,
    generate,
    lp_max_min,
    pseudo_apply,
    solve_exact,
    symmetric_eigen,
)
from integer_form import integer_rows, max_min


def dist(text):
    from eqcurv import parse_family_spec

    return apsp(generate(parse_family_spec(text)))


# ---------------------------------------------------------------------------
# solve_exact
# ---------------------------------------------------------------------------


class TestSolveExact:
    def test_path3_distance_system(self):
        out = solve_exact(dist("path:3").entries, [3, 3, 3])
        assert out.status is SolveStatus.UNIQUE
        assert out.solution == (Fraction(3, 2), Fraction(0), Fraction(3, 2))

    def test_identity(self):
        # x = 5/3 as the integer row 3 x = 5
        matrix, rhs = integer_rows([[1, 0], [0, 1]], [Fraction(5, 3), 7])
        assert (matrix, rhs) == ([[3, 0], [0, 1]], [5, 7])
        out = solve_exact(matrix, rhs)
        assert out.status is SolveStatus.UNIQUE
        assert out.solution == (Fraction(5, 3), Fraction(7))

    def test_k1114_inconsistent(self):
        d = dist("complete_multipartite:1,1,1,4")
        out = solve_exact(d.entries, [7] * 7)
        assert out.status is SolveStatus.INCONSISTENT
        assert out.solution is None
        assert out.nullspace_dimension == 7 - out.rank >= 1

    def test_affine_with_kernel_certificate(self):
        d = dist("cycle:4")
        out = solve_exact(d.entries, [4] * 4)
        assert out.status is SolveStatus.AFFINE
        assert out.nullspace_dimension == 1
        (z,) = out.nullspace
        d_rows = d.entries.tolist()
        assert all(sum(Fraction(a) * x for a, x in zip(row, z)) == 0 for row in d_rows)
        assert all(sum(Fraction(a) * x for a, x in zip(row, out.solution)) == 4 for row in d_rows)

    def test_rational_entries(self):
        m = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
        matrix, rhs = integer_rows(m, [1, 1])
        assert (matrix, rhs) == ([[1, 0], [0, 1]], [2, 3])
        out = solve_exact(matrix, rhs)
        assert out.solution == (Fraction(2), Fraction(3))

    def test_single_zero_entry(self):
        # empty pivot block: rank 0, the whole space is the kernel
        out = solve_exact([[0]], [1])
        assert out.status is SolveStatus.INCONSISTENT
        assert out.rank == 0
        assert out.solution is None
        assert out.nullspace == ((Fraction(1),),)
        out = solve_exact([[0]], [0])
        assert out.status is SolveStatus.AFFINE
        assert out.solution == (Fraction(0),)
        assert out.nullspace == ((Fraction(1),),)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="rhs length"):
            solve_exact([[1, 0], [0, 1]], [1, 2, 3])
        with pytest.raises(ValueError, match="square"):
            solve_exact([[1, 0, 0], [0, 1, 0]], [1, 2])

    def test_rejects_float_entries(self):
        # integer entries only: a float, a Fraction or a float64 array, in the
        # matrix or in the rhs, is a TypeError
        identity, ones = [[1, 0], [0, 1]], [1, 1]
        for bad in (1.5, 1.0, Fraction(1, 2), Fraction(1)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                solve_exact([[bad, 0], [0, 1]], ones)
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                solve_exact(identity, [1, bad])
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            solve_exact(np.eye(2), ones)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            solve_exact(identity, np.ones(2))
        # the shape is checked first: ragged or 1-D input is a ValueError
        with pytest.raises(ValueError, match="square"):
            solve_exact([[1, 0], [1]], ones)
        with pytest.raises(ValueError, match="square"):
            solve_exact(np.array([1, 2]), ones)
        with pytest.raises(ValueError, match="square"):
            solve_exact([1, 2], ones)
        with pytest.raises(ValueError, match="rhs length"):
            solve_exact(identity, [[1], [1]])
        # a ragged rhs has the right length, but its rows are no integers: a shape error
        for ragged in ([[1], [1, 2]], [[1], 1], [1, [2, 3]]):
            with pytest.raises(ValueError, match="rhs length"):
                solve_exact(identity, ragged)
        with pytest.raises(ValueError, match="square"):
            solve_exact([[1, 0], [0, [1]]], ones)
        # an int array past int64 stays exact; np.asarray would make this one float64
        big = [[2**63, 1], [1, 1]]
        assert solve_exact(big, ones).solution == (Fraction(0), Fraction(1))
        unsigned = np.array(big, dtype=np.uint64)
        assert solve_exact(unsigned, np.array(ones)).solution == (Fraction(0), Fraction(1))


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 5),
    data=st.data(),
)
def test_solve_exact_substitution_identity(n, data):
    entries = data.draw(
        st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    out = solve_exact(entries, rhs)
    assert out.rank + out.nullspace_dimension == n
    for z in out.nullspace:
        assert all(sum(Fraction(a) * x for a, x in zip(row, z)) == 0 for row in entries)
    if out.status is not SolveStatus.INCONSISTENT:
        sol = out.solution
        assert all(
            sum(Fraction(a) * x for a, x in zip(row, sol)) == b for row, b in zip(entries, rhs)
        )
    else:
        # cross-check inconsistency with numpy least squares: residual stays large
        a = np.array(entries, dtype=float)
        b = np.array(rhs, dtype=float)
        z, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.abs(a @ z - b).max() > 1e-7


# ---------------------------------------------------------------------------
# symmetric_eigen
# ---------------------------------------------------------------------------


def laplacian(text):
    from eqcurv import parse_family_spec

    g = generate(parse_family_spec(text))
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, v] = lap[v, u] = -1.0
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def circulant_distance_eigenvalues(n):
    """Independent oracle: eigenvalues of the cycle's circulant distance matrix,
    lambda_j = sum_k min(k, n-k) * cos(2 pi j k / n)."""
    vals = []
    for j in range(n):
        vals.append(
            sum(min(k, n - k) * math.cos(2 * math.pi * j * k / n) for k in range(n))
        )
    return sorted(vals, reverse=True)


class TestSymmetricEigen:
    def test_exchange_matrix(self):
        eig = symmetric_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_cycle4_distance_spectrum(self):
        eig = symmetric_eigen(dist("cycle:4").entries.astype(float))
        assert np.allclose(eig.eigenvalues, [4.0, 0.0, -2.0, -2.0], atol=1e-10)

    @pytest.mark.parametrize(
        "spec", ["complete:3", "complete:4", "complete:7", "hypercube:3", "hypercube:4"]
    )
    def test_laplacian_spectrum_closed_form(self, spec):
        """Repeated Laplacian eigenvalues: n (multiplicity n-1) and 0 on K_n;
        2k (multiplicity C(d, k)) on the hypercube Q_d."""
        family, size = spec.split(":")
        m = int(size)
        if family == "complete":
            expected = [m] * (m - 1) + [0]
        else:
            expected = [2 * k for k in range(m, -1, -1) for _ in range(math.comb(m, k))]
        eig = symmetric_eigen(laplacian(spec))
        assert np.allclose(eig.eigenvalues, expected, atol=1e-10)
        v = eig.eigenvectors
        assert np.abs(v.T @ v - np.eye(len(expected))).max() <= 1e-10

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_distance_spectra_match_circulant_form(self, n):
        eig = symmetric_eigen(dist(f"cycle:{n}").entries.astype(float))
        assert np.allclose(eig.eigenvalues, circulant_distance_eigenvalues(n), atol=1e-8)

    def test_reconstruction_and_orthonormality_bounds(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5, 8, 13, 21):
            m = rng.integers(-9, 10, size=(n, n)).astype(float)
            m = (m + m.T) / 2
            eig = symmetric_eigen(m)
            v, lam = eig.eigenvectors, eig.eigenvalues
            recon = np.abs(m - v @ np.diag(lam) @ v.T).max()
            assert recon <= 1e-9 * max(1.0, np.abs(m).max())
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            m = rng.normal(size=(n, n))
            m = m + m.T
            ours = symmetric_eigen(m).eigenvalues
            lapack = np.linalg.eigvalsh(m)[::-1]
            assert np.allclose(ours, lapack, atol=1e-9)

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricMatrixError):
            symmetric_eigen([[0.0, 1.0], [0.5, 0.0]])

    def test_offdiagonal_residual_bound(self):
        """The reported max |(V^T M V)_ij|, i != j, is within 1e-12 * ||M||_F."""
        rng = np.random.default_rng(5)
        mats = [dist("cycle:8").entries.astype(float)]
        for n in (2, 3, 5, 8, 13, 21):
            m = rng.integers(-9, 10, size=(n, n)).astype(float)
            mats.append((m + m.T) / 2)
        for m in mats:
            eig = symmetric_eigen(m)
            assert eig.offdiagonal_residual <= 1e-12 * max(1.0, np.linalg.norm(m))
            rotated = eig.eigenvectors.T @ m @ eig.eigenvectors
            np.fill_diagonal(rotated, 0.0)
            assert eig.offdiagonal_residual == pytest.approx(np.abs(rotated).max(), abs=1e-15)

    def test_one_by_one(self):
        eig = symmetric_eigen([[7.0]])
        assert eig.eigenvalues.tolist() == [7.0]

    def test_zero_matrix(self):
        eig = symmetric_eigen(np.zeros((3, 3)))
        assert eig.eigenvalues.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# pseudo_apply
# ---------------------------------------------------------------------------


def sympy_pinv_case(rng):
    """A seeded symmetric integer matrix ``B^T S B`` of rank at most r <= n, its
    integer kernel basis from sympy, an integer rhs, and sympy's exact ``M^+ rhs``."""
    sp = pytest.importorskip("sympy")
    n = rng.randint(1, 7)
    r = rng.randint(0, n)
    b = sp.Matrix(r, n, lambda i, j: rng.randint(-3, 3))
    m = b.T * sp.diag(*[rng.choice([-1, 1]) for _ in range(r)]) * b if r else sp.zeros(n, n)
    kernel = [[int(x * math.lcm(*(sp.fraction(y)[1] for y in v))) for x in v]
              for v in m.nullspace()]
    rhs = [rng.randint(-9, 9) for _ in range(n)]
    expected = [Fraction(int(p), int(q)) for p, q in map(sp.fraction, m.pinv() * sp.Matrix(rhs))]
    return np.array(m.tolist(), dtype=np.int64), kernel, rhs, expected


def exact_pseudo(matrix, rhs, kernel):
    nums, den = pseudo_apply(matrix, rhs, kernel)
    return [Fraction(int(v), den) for v in nums]


class TestPseudoApply:
    def test_matches_sympy_pinv_on_seeded_symmetric_matrices(self):
        rng = random.Random(7)
        ranks = set()
        for _ in range(150):
            m, kernel, rhs, expected = sympy_pinv_case(rng)
            ranks.add((len(m), len(m) - len(kernel)))
            assert exact_pseudo(m, rhs, kernel) == expected
        # every rank from 0 to 7 is drawn: the zero matrix, singular ones, full rank
        assert {r for _, r in ranks} == set(range(8))

    def test_invertible_matches_exact_solve(self):
        d = dist("cycle:5")
        exact = solve_exact(d.entries, [5] * 5)
        assert exact.status is SolveStatus.UNIQUE
        assert exact_pseudo(d.entries, [5] * 5, exact.kernel_rows) == list(exact.solution)

    def test_random_invertible_agreement(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 25:
            n = int(rng.integers(2, 9))
            m = rng.integers(-4, 5, size=(n, n))
            m = m + m.T
            rhs = [int(b) for b in rng.integers(-9, 10, size=n)]
            exact = solve_exact(m, rhs)
            if exact.status is not SolveStatus.UNIQUE:
                continue
            assert exact_pseudo(m, rhs, np.zeros((0, n), dtype=int)) == list(exact.solution)
            done += 1

    def test_zero_matrix_gives_zero_vector(self):
        nums, den = pseudo_apply(np.zeros((4, 4), dtype=int), [1] * 4, np.eye(4, dtype=int))
        assert not nums.any() and den > 0

    def test_k1114_entry_range(self):
        d = dist("complete_multipartite:1,1,1,4")
        outcome = solve_exact(d.entries, [7] * 7)
        assert outcome.status is SolveStatus.INCONSISTENT
        w = exact_pseudo(d.entries, [7] * 7, outcome.kernel_rows)
        assert (min(w), max(w)) == (Fraction(21, 32), Fraction(63, 64))

    def test_matches_numpy_pinv_on_singular(self):
        d = dist("cycle:6").entries
        kernel = solve_exact(d, [0] * 6).kernel_rows
        assert len(kernel) == 2
        ref = np.linalg.pinv(d.astype(float)) @ np.full(6, 6.0)
        assert np.abs(np.array(exact_pseudo(d, [6] * 6, kernel), dtype=float) - ref).max() <= 1e-8

    def test_rhs_shape_check(self):
        with pytest.raises(ValueError, match="rhs length"):
            pseudo_apply(np.zeros((3, 3), dtype=int), [1] * 4, np.eye(3, dtype=int))

    def test_refuses_a_non_symmetric_matrix(self):
        with pytest.raises(NonSymmetricMatrixError, match="symmetric"):
            pseudo_apply([[0, 1], [2, 0]], [1, 1], np.zeros((0, 2), dtype=int))
        with pytest.raises(ValueError, match="symmetric"):
            pseudo_apply([[0, 1, 2], [1, 0, 1]], [1, 1], np.zeros((0, 3), dtype=int))

    def test_refuses_a_row_outside_the_kernel(self):
        d = dist("cycle:6").entries
        kernel = np.array(solve_exact(d, [0] * 6).kernel_rows)
        kernel[1, 0] += 1
        with pytest.raises(ValueError, match="M z != 0"):
            pseudo_apply(d, [6] * 6, kernel)

    def test_refuses_a_dependent_basis(self):
        d = dist("cycle:6").entries
        kernel = solve_exact(d, [0] * 6).kernel_rows
        dependent = np.vstack([kernel[0], kernel[1], kernel[0] + 2 * kernel[1]])
        with pytest.raises(ValueError, match="not a basis"):
            pseudo_apply(d, [6] * 6, dependent)
        with pytest.raises(ValueError, match="not a basis"):
            pseudo_apply(d, [6] * 6, np.vstack([kernel[0], kernel[0]]))

    def test_refuses_a_basis_with_a_row_missing(self):
        d = dist("cycle:6").entries
        kernel = solve_exact(d, [0] * 6).kernel_rows
        with pytest.raises(ValueError, match="not a basis"):
            pseudo_apply(d, [6] * 6, kernel[:1])
        with pytest.raises(ValueError, match="not a basis"):
            pseudo_apply(np.zeros((2, 2), dtype=int), [1, 1], np.zeros((0, 2), dtype=int))

    def test_refuses_rows_of_another_length_and_non_integer_entries(self):
        with pytest.raises(ValueError, match="kernel row needs 3 entries"):
            pseudo_apply(np.zeros((3, 3), dtype=int), [1] * 3, [[1, 0]])
        with pytest.raises(TypeError):
            pseudo_apply(np.zeros((2, 2)), [1.0, 1.0], np.eye(2, dtype=int))


# ---------------------------------------------------------------------------
# lp_max_min
# ---------------------------------------------------------------------------


def sweep_oracle(particular, basis_vec, grid):
    """1-D oracle: lexicographically largest sorted entry vector over a c grid."""
    best_c, best_key = None, None
    for c in grid:
        w = [p + c * b for p, b in zip(particular, basis_vec)]
        key = sorted(w)
        if best_key is None or key > best_key:
            best_key, best_c = key, c
    return best_c, best_key


class TestLpMaxMin:
    def test_empty_nullspace_returns_particular(self):
        p = (Fraction(3, 2), Fraction(0), Fraction(3, 2))
        assert max_min(p, ()) == p

    def test_symmetric_family_forces_center(self):
        w = max_min((1, 1), ((1, -1),))
        assert w == (Fraction(1), Fraction(1))
        assert min(w) == 1

    def test_tie_refinement_matches_grid_sweep(self):
        particular = (2, 0, 0)
        basis = (-1, 1, 0)
        grid = [Fraction(i, 100) for i in range(-300, 301)]
        best_c, best_key = sweep_oracle(particular, basis, grid)
        assert best_c == 1 and best_key == [0, 1, 1]
        w = max_min(particular, (basis,))
        assert w == (Fraction(1), Fraction(1), Fraction(0))
        assert min(w) == 0

    @pytest.mark.parametrize(
        "particular, basis",
        [
            # min_i w_i unbounded: both coordinates grow along (1, 1)
            ((0, 0), ((1, 1),)),
            # min(0, c) is bounded by 0, but w_1 = c grows freely after that
            ((0, 0), ((0, 1),)),
            # w = (c1, -c1, 1 + c2, 1 - c2, c3): only the third vector has a nonzero sum
            ((0, 0, 1, 1, 0), ((1, -1, 0, 0, 0), (0, 0, 1, -1, 0), (0, 0, 0, 0, 1))),
            # w_0 = 5 is constant and w_1 = -3 + c grows freely
            ((5, -3), ((0, 1),)),
        ],
        ids=["unbounded", "later_level_unbounded", "later_level_after_fixed", "free_below_fixed"],
    )
    def test_refuses_vectors_with_nonzero_sum(self, particular, basis):
        # a consistent distance system has a kernel of zero-sum vectors only
        with pytest.raises(ValueError, match="sum to 0"):
            max_min(particular, basis)

    def test_rejects_float_entries(self):
        # a float or a Fraction numerator is refused, not truncated to an int
        for bad in (0.5, Fraction(1, 2)):
            with pytest.raises(TypeError):
                lp_max_min(([bad, 1], 1), [])
            with pytest.raises(TypeError):
                lp_max_min(([0, 0], 1), [[bad, -bad]])

    def test_two_dimensional_family_against_fine_sweep(self):
        particular = (3, -1, 0, 2)
        basis = ((1, 1, -1, -1), (0, 1, 1, -2))
        w = max_min(particular, basis)
        # oracle: dense sweep over both coefficients
        best = None
        for c1 in np.linspace(-4, 4, 161):
            for c2 in np.linspace(-4, 4, 161):
                cand = sorted(
                    p + c1 * b1 + c2 * b2
                    for p, b1, b2 in zip(particular, basis[0], basis[1])
                )
                if best is None or cand > best:
                    best = cand
        assert abs(float(min(w)) - best[0]) <= 0.05  # grid resolution
        assert float(min(w)) >= best[0] - 1e-12

    def test_output_dominates_random_feasible_points(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(2, 6)
            k = rng.randint(1, 2)
            particular = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            basis = []
            while len(basis) < k:
                head = [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)]
                if any(head):
                    basis.append(head + [-sum(head)])
            w = max_min(particular, basis)
            best = min(w)
            for _ in range(1000):
                cs = [Fraction(rng.randint(-3000, 3000), 1000) for _ in range(k)]
                other = [
                    particular[i] + sum(c * b[i] for c, b in zip(cs, basis))
                    for i in range(n)
                ]
                assert min(other) <= best

    def test_optimal_value_matches_scipy(self):
        rng = random.Random(7)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 7)
            k = rng.randint(1, 3)
            particular = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
            heads = [[Fraction(rng.randint(-4, 4)) for _ in range(n - 1)] for _ in range(k)]
            if any(not any(head) for head in heads):
                continue
            basis = [head + [-sum(head)] for head in heads]
            # scipy solves: maximize t  s.t.  t - (B c)_i <= p_i, variables (c, t) free
            a_ub = np.zeros((n, k + 1))
            for i in range(n):
                for j in range(k):
                    a_ub[i, j] = -float(basis[j][i])
                a_ub[i, k] = 1.0
            b_ub = np.array([float(x) for x in particular])
            res = linprog(
                c=[0.0] * k + [-1.0],
                A_ub=a_ub,
                b_ub=b_ub,
                bounds=[(None, None)] * (k + 1),
                method="highs",
            )
            w = max_min(particular, basis)
            assert res.status == 0
            assert abs(float(min(w)) - (-res.fun)) <= 1e-7
            checked += 1
