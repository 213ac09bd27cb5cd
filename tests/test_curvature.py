"""Curvature pipeline: exact statuses, canonicalization, exact pseudo fallback."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqcurv.curvature as curvature_module
import eqcurv.graphs as graphs_module
from eqcurv import (
    CurvatureStatus,
    FamilySpec,
    FamilySpecError,
    Graph,
    apsp,
    cartesian_product,
    check_bonnet_myers,
    check_lichnerowicz,
    check_minimax,
    check_product_curvature,
    check_reverse_bonnet_myers,
    check_theorem5,
    compute_curvature,
    curvature_of_family,
    generate,
    lp_max_min,
    nullspace_sum_check,
    parse_family_spec,
    pseudo_apply,
    solve_exact,
    spectral_gap,
)
from eqcurv.cli import analyze_graph
from integer_form import constant_row_sums, max_min

# scanned offline: connected ER graphs with singular D and non-constant row
# sums, so the canonicalization LP actually runs (not the one-cell exit)
LP_PATH_SPEC = "erdos_renyi:6,0.45,1"  # nullspace dim 1, canonical min w == 0
LP_PATH_NEGATIVE_SPEC = "erdos_renyi:6,0.45,25"  # canonical min w < 0
LP_PATH_POSITIVE_SPEC = "erdos_renyi:6,0.5,98"  # canonical min w == 1/2 > 0


def fam(text):
    return generate(parse_family_spec(text))


class TestComputeCurvature:
    def test_complete5_constant(self):
        r = compute_curvature(fam("complete:5"))
        assert r.status is CurvatureStatus.EXACT_UNIQUE
        assert set(r.w) == {Fraction(5, 4)}
        assert r.K == Fraction(5, 4)
        assert r.total == Fraction(25, 4)

    def test_cycle6_constant_via_affine_family(self):
        r = compute_curvature(fam("cycle:6"))
        # D(C_6) is a singular circulant; the family still pins the constant
        assert r.status is CurvatureStatus.EXACT_CANONICAL
        assert r.nullspace_dimension == 2
        assert set(r.w) == {Fraction(2, 3)}

    def test_path3_endpoint_pattern(self):
        r = compute_curvature(fam("path:3"))
        assert r.status is CurvatureStatus.EXACT_UNIQUE
        assert r.w == (Fraction(3, 2), Fraction(0), Fraction(3, 2))
        assert r.K == 0

    @pytest.mark.parametrize("n", [2, 5, 9, 17, 30])
    def test_path_pattern_up_to_30(self, n):
        r = compute_curvature(fam(f"path:{n}"))
        expected = [Fraction(0)] * n
        expected[0] = expected[-1] = Fraction(n, n - 1)
        assert list(r.w) == expected

    def test_exact_residual_range_is_n_n(self):
        for spec in ("path:5", "cycle:8", "complete:6", "hypercube:3", LP_PATH_SPEC):
            g = fam(spec)
            r = compute_curvature(g)
            assert r.residual_range == (Fraction(g.n), Fraction(g.n))

    def test_k1114_inconsistent_with_paper_ranges(self):
        g = fam("complete_multipartite:1,1,1,4")
        r = compute_curvature(g)
        assert r.status is CurvatureStatus.INCONSISTENT
        assert not r.is_exact
        # the exact pseudo solution: every field a Fraction, w orthogonal to ker D
        assert all(type(x) is Fraction for x in (*r.w, r.K, r.total, *r.residual_range))
        assert (min(r.w), max(r.w)) == (Fraction(21, 32), Fraction(63, 64))
        assert r.residual_range == (Fraction(21, 4), Fraction(63, 8))
        assert r.K == min(r.w) and r.total == sum(r.w)
        for z in solve_exact(g.distance_matrix.entries, [0] * 7).kernel_rows:
            assert sum(x * int(v) for x, v in zip(r.w, z)) == 0

    def test_single_vertex_gives_the_zero_pseudo_solution(self):
        # D = [0] has kernel (1), and the pseudo-inverse of 0 is 0
        r = compute_curvature(fam("complete:1"))
        assert r.status is CurvatureStatus.INCONSISTENT
        assert r.w == (0,) and type(r.w[0]) is Fraction
        assert r.residual_range == (0, 0)

    def test_lp_path_graph_runs_the_simplex(self):
        g = fam(LP_PATH_SPEC)
        dm = apsp(g)
        assert not constant_row_sums(dm)
        r = compute_curvature(g, dm)
        assert r.status is CurvatureStatus.EXACT_CANONICAL
        assert r.nullspace_dimension >= 1
        assert min(r.w) == r.K >= 0

    def test_negatively_curved_multi_solution_graph(self):
        r = compute_curvature(fam(LP_PATH_NEGATIVE_SPEC))
        assert r.status is CurvatureStatus.EXACT_CANONICAL
        assert r.K < 0
        # l1 norm differs from the plain sum when entries go negative
        assert r.total == sum(abs(x) for x in r.w) > sum(r.w)

    def test_scale_consistency_rhs_linearity(self):
        from eqcurv import solve_exact

        for spec in ("path:4", "cycle:5", "erdos_renyi:7,0.5,2"):
            g = fam(spec)
            d = apsp(g).entries
            unit = solve_exact(d, [1] * g.n)
            full = solve_exact(d, [g.n] * g.n)
            assert unit.status == full.status
            if unit.solution is not None:
                assert tuple(x * g.n for x in unit.solution) == full.solution

    def test_k_bound_with_equality_only_for_complete(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(3, 12)
            g = fam(f"erdos_renyi:{n},0.6,{rng.randint(0, 10_000)}")
            r = compute_curvature(g)
            if not r.is_exact:
                continue
            bound = Fraction(g.n, g.n - 1)
            assert r.K <= bound
            if r.K == bound:
                assert g.edge_count == g.n * (g.n - 1) // 2
        for n in range(2, 9):
            r = compute_curvature(fam(f"complete:{n}"))
            assert r.K == Fraction(n, n - 1)

    def test_pseudo_reproduces_exact_on_invertible(self):
        g = fam("cycle:5")
        d = apsp(g)
        r = compute_curvature(g, d)
        assert r.status is CurvatureStatus.EXACT_UNIQUE
        nums, den = pseudo_apply(d.entries, [5] * 5, np.zeros((0, 5), dtype=int))
        assert tuple(Fraction(int(v), den) for v in nums) == r.w


class TestCurvatureOfFamily:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("complete:5", Fraction(5, 4)),
            ("cycle:6", Fraction(2, 3)),
            ("cycle:7", Fraction(7, 12)),
            ("hypercube:4", Fraction(1, 2)),
            ("cocktail_party:4", Fraction(1)),
            ("johnson:6,3", Fraction(2, 3)),
            ("johnson:4,2", Fraction(1)),
            ("demicube:4", Fraction(1)),
        ],
    )
    def test_closed_forms(self, text, expected):
        assert curvature_of_family(parse_family_spec(text)) == expected

    def test_path_has_no_closed_form(self):
        with pytest.raises(FamilySpecError, match="closed-form"):
            curvature_of_family(parse_family_spec("path:5"))

    def test_complete_1_has_no_closed_form(self):
        with pytest.raises(FamilySpecError, match="complete closed form needs n >= 2"):
            curvature_of_family(parse_family_spec("complete:1"))

    @pytest.mark.parametrize(
        "text", ["cycle:2", "cycle:2.5", "johnson:3,5", "johnson:4,0", "demicube:-2", "hypercube:0"]
    )
    def test_refuses_the_specs_generate_refuses(self, text):
        # these once gave a value (cycle:2.5 truncated to 2) or divided by zero
        spec = parse_family_spec(text)
        with pytest.raises(FamilySpecError, match=f"family '{spec.family}' expects"):
            curvature_of_family(spec)
        with pytest.raises(FamilySpecError, match=f"family '{spec.family}' expects"):
            generate(spec)

    def test_needs_no_vertex_limit(self):
        # no graph is built, so a member past MAX_FAMILY_VERTICES has its closed form
        assert curvature_of_family(parse_family_spec("hypercube:100")) == Fraction(1, 50)

    def test_small_families_match_pipeline(self):
        specs = (
            [f"complete:{n}" for n in range(2, 7)]
            + [f"cycle:{n}" for n in range(3, 9)]
            + [f"hypercube:{n}" for n in range(1, 5)]
            + [f"cocktail_party:{n}" for n in range(2, 5)]
            + ["johnson:5,2", "johnson:6,3", "demicube:3", "demicube:5"]
        )
        for text in specs:
            spec = parse_family_spec(text)
            expected = curvature_of_family(spec)
            r = compute_curvature(generate(spec))
            assert r.is_exact, text
            assert set(r.w) == {expected}, text


def particular(g):
    """The particular solution ``(nums, den)`` of ``D w = n * 1`` from a fresh exact solve."""
    return solve_exact(apsp(g).entries, [g.n] * g.n).particular


def particular_sum(g):
    nums, den = particular(g)
    return Fraction(sum(map(int, nums)), den)


class TestInvarianceCheck:
    # zero kernel sums make every solution's entry sum that of the particular
    # solution, and a nonnegative member exists exactly when the max-min K >= 0

    def test_unique_solution_is_a_one_member_family(self):
        # path:3 has w = (3/2, 0, 3/2): K == 0, so its one member is nonnegative
        g = fam("path:3")
        report, r = nullspace_sum_check(g), compute_curvature(g)
        assert report.nullspace_dimension == 0 and report.entry_sums == ()
        assert sum(r.w) == 3 and r.K >= 0
        # a star's centre has w < 0, and there is no other member
        star = Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
        report, r = nullspace_sum_check(star), compute_curvature(star)
        assert report.entry_sums == () and r.status is CurvatureStatus.EXACT_UNIQUE
        assert sum(r.w) == particular_sum(star) and r.K < 0

    def test_cycle4_family_has_invariant_total(self):
        g = fam("cycle:4")
        report, r = nullspace_sum_check(g), compute_curvature(g)
        assert report.nullspace_dimension == 1
        assert report.entry_sums == (0,)
        assert r.K >= 0
        assert sum(r.w) == particular_sum(g) == 4  # n * K = 4 * 1

    def test_scanned_multi_solution_graph(self):
        g = fam(LP_PATH_POSITIVE_SPEC)
        r = compute_curvature(g)
        assert r.status is CurvatureStatus.EXACT_CANONICAL and r.K > 0
        report = nullspace_sum_check(g)
        assert report.nullspace_dimension >= 1
        assert not any(report.entry_sums)
        # the max-min point is a nonnegative member: its l1 norm is the total
        assert particular_sum(g) == sum(r.w) == r.total

    def test_boundary_case_has_a_nonnegative_member(self):
        # canonical min w == 0: the nonnegative slice of the family has empty
        # interior, which random sampling missed, but the max-min point is in it
        g = fam(LP_PATH_SPEC)
        r = compute_curvature(g)
        assert r.K == 0 and not any(nullspace_sum_check(g).entry_sums)
        assert particular_sum(g) == sum(r.w) == r.total

    def test_negative_max_min_has_no_nonnegative_member(self):
        g = fam(LP_PATH_NEGATIVE_SPEC)
        r = compute_curvature(g)
        assert r.K < 0 and not any(nullspace_sum_check(g).entry_sums)
        assert particular_sum(g) == sum(r.w)

    def test_hypercube4_has_the_constant_member(self):
        # w = 1/2 everywhere is a member; sampling the 11-dimensional family
        # found no nonnegative point
        g = fam("hypercube:4")
        report, r = nullspace_sum_check(g), compute_curvature(g)
        assert report.nullspace_dimension == 11 and not any(report.entry_sums)
        assert r.K >= 0 and particular_sum(g) == sum(r.w) == 8

    def test_inconsistent_system_has_no_member(self):
        g = fam("complete_multipartite:1,1,1,4")
        report = nullspace_sum_check(g)
        assert any(report.entry_sums) and report.exceptional
        assert compute_curvature(g).status is CurvatureStatus.INCONSISTENT
        assert particular(g) is None


class TestNullspaceSumCheck:
    def test_cycle6_kernel_sums_to_zero(self):
        # D(C_6) has a 2-dimensional kernel, but its vectors sum to zero,
        # consistent with the system being solvable
        report = nullspace_sum_check(fam("cycle:6"))
        assert report.nullspace_dimension == 2
        assert all(s == 0 for s in report.entry_sums)
        assert not report.exceptional

    def test_k1114_is_exceptional(self):
        report = nullspace_sum_check(fam("complete_multipartite:1,1,1,4"))
        assert report.nullspace_dimension >= 1
        assert report.exceptional

    def test_k2_trivial_kernel(self):
        report = nullspace_sum_check(fam("complete:2"))
        assert report.nullspace_dimension == 0
        assert not report.exceptional

    def test_exceptional_graphs_are_inconsistent(self):
        for spec in ("complete_multipartite:1,1,1,4", "complete_multipartite:1,1,1,1,3"):
            g = fam(spec)
            assert nullspace_sum_check(g).exceptional
            assert compute_curvature(g).status is CurvatureStatus.INCONSISTENT


def prufer_tree(n: int, code: list[int]) -> Graph:
    """The labelled tree on n >= 2 vertices with the given Pruefer code (length n - 2)."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = degree.index(1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = (i for i, d in enumerate(degree) if d == 1)
    edges.append((u, v))
    return Graph(n, frozenset(edges))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 40))
def test_tree_curvature_matches_graham_lovasz(data, n):
    # Graham and Lovasz (1978) give D^{-1} of a tree; with it, D w = n * 1
    # has the unique solution w_i = n (2 - deg_i) / (n - 1)
    code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    g = prufer_tree(n, code)
    degree = [0] * n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    result = compute_curvature(g)
    assert result.status is CurvatureStatus.EXACT_UNIQUE
    assert result.w == tuple(Fraction(n * (2 - d), n - 1) for d in degree)


@pytest.mark.parametrize("n", [10, 200, 500, 1000])
def test_graham_lovasz_on_large_random_recursive_trees(n):
    # sizes no sympy oracle reaches; in a random recursive tree vertex v joins
    # a uniformly drawn earlier vertex. D is invertible (Graham and Pollak 1971)
    rng = random.Random(n)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    result = compute_curvature(Graph(n, frozenset(edges)))
    assert result.status is CurvatureStatus.EXACT_UNIQUE
    assert result.w == tuple(Fraction(n * (2 - d), n - 1) for d in degree)


def test_graham_lovasz_on_path_2000():
    # n = 2000, half the vertex limit: max|D| = 1999 puts n max|D| near 2^22,
    # so the float route's lifting gains only 4 bits per step; w is
    # n / (n - 1) at both ends and 0 inside
    n = 2000
    result = compute_curvature(fam(f"path:{n}"))
    assert result.status is CurvatureStatus.EXACT_UNIQUE
    ends = Fraction(n, n - 1)
    assert result.w == (ends,) + (Fraction(0),) * (n - 2) + (ends,)


def circulant(n: int, jumps: set[int]) -> Graph:
    """C_n(S): vertex v adjacent to v +- s mod n for every jump s in S."""
    return Graph(n, frozenset((min(v, (v + s) % n), max(v, (v + s) % n))
                              for v in range(n) for s in jumps))


def jump_sets(n: int):
    """Jump sets that contain 1, so that C_n(S) is connected."""
    return st.sets(st.integers(1, max(1, n // 2))).map(lambda s: s | {1})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(3, 24))
def test_circulant_curvature_is_constant(data, n):
    # C_n(S) with 1 in S is connected and vertex-transitive, so every distance
    # row sums to the same R and D (n/R * 1) = n * 1; the constant vector is
    # also the leximin point, which the LP skipped by compute_curvature confirms
    g = circulant(n, data.draw(jump_sets(n)))
    dm = apsp(g)
    row_sum = int(dm.entries[0].sum())
    assert (dm.entries.sum(axis=1) == row_sum).all()
    expected = (Fraction(n, row_sum),) * n
    assert compute_curvature(g, dm).w == expected
    outcome = solve_exact(dm.entries, [n] * n)
    if outcome.nullspace:
        assert max_min(outcome.solution, outcome.nullspace) == expected


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(2, 75))
def test_circulant_product_curvature_is_harmonic(data, n):
    # D of the box product is D_G (x) J + J (x) D_H, so every row of the
    # product sums to m R_1 + n R_2 and w = nm / (m R_1 + n R_2) * 1 solves
    # D w = nm * 1: 1/K = 1/K_1 + 1/K_2 with K_i = n_i / R_i
    m = data.draw(st.integers(2, 150 // n))
    g, h = circulant(n, data.draw(jump_sets(n))), circulant(m, data.draw(jump_sets(m)))
    r1, r2 = int(apsp(g).entries[0].sum()), int(apsp(h).entries[0].sum())
    product = cartesian_product(g, h)
    assert compute_curvature(product).w == (Fraction(n * m, m * r1 + n * r2),) * (n * m)
    assert check_product_curvature(g, h).passed


@pytest.mark.parametrize(
    "spec", ["path:5", "cycle:6", LP_PATH_SPEC, "complete_multipartite:1,1,1,4"]
)
def test_one_solve_per_distance_matrix(monkeypatch, spec):
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve_exact(*args)

    monkeypatch.setattr(curvature_module, "solve_exact", counting_solve)
    g = fam(spec)
    compute_curvature(g)
    nullspace_sum_check(g)
    assert len(calls) == 1
    # a fresh distance matrix is a fresh solve
    compute_curvature(g, apsp(g))
    assert len(calls) == 2


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call; returns the record."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "spec", ["cycle:6", LP_PATH_SPEC, "complete_multipartite:1,1,1,4", "hypercube:3"]
)
def test_entry_points_share_one_distance_matrix_and_one_solve(monkeypatch, spec):
    # every entry point reads the graph's own distance matrix, its cached
    # solve and its cached curvature, so the max-min LP runs at most once
    apsp_calls = count_calls(monkeypatch, graphs_module, "apsp")
    solves = count_calls(monkeypatch, curvature_module, "solve_exact")
    lps = count_calls(monkeypatch, curvature_module, "lp_max_min")
    g = fam(spec)
    result = compute_curvature(g)
    info = spectral_gap(g)
    nullspace_sum_check(g)
    check_bonnet_myers(g, result)
    check_reverse_bonnet_myers(g, result)
    check_lichnerowicz(g, result, info)
    check_minimax(g, result)
    check_theorem5(g, [1] * g.n, info)
    analyze_graph(g, 0)
    assert (len(apsp_calls), len(solves)) == (1, 1)
    assert len(lps) == (1 if spec == LP_PATH_SPEC else 0)


@pytest.mark.parametrize("spec", [LP_PATH_SPEC, LP_PATH_NEGATIVE_SPEC, "knight_board:3,4"])
def test_lp_max_min_on_integer_kernel_rows(spec):
    # the leximin point does not depend on the scale of the kernel basis:
    # each row multiplied by a different nonzero integer gives the same point
    g = fam(spec)
    dm = apsp(g)
    outcome = solve_exact(dm.entries, [dm.n] * dm.n)
    rows = outcome.kernel_rows
    assert len(rows) and not constant_row_sums(dm)
    scales = np.array([(-1) ** j * (j + 2) for j in range(len(rows))], dtype=object)
    nums, den = lp_max_min(outcome.particular, rows)
    scaled_nums, scaled_den = lp_max_min(outcome.particular, rows * scales.reshape(-1, 1))
    # small distance systems: the level bounds hold, so the points are int64
    assert type(den) is type(scaled_den) is int and nums.dtype == scaled_nums.dtype == np.int64
    w = tuple(Fraction(v, den) for v in nums.tolist())
    assert w == tuple(Fraction(v, scaled_den) for v in scaled_nums.tolist())
    assert w == compute_curvature(g, dm).w


VIEWS = ("w", "K", "total", "residual_range")


def test_views_are_built_on_first_read_from_the_integer_point():
    g = fam("erdos_renyi:120,0.1,1")
    result = compute_curvature(g)
    assert not set(VIEWS) & set(vars(result))
    nums, den, dw = result.nums, result.den, result.dw
    assert all(type(v) is int for v in (*nums, den, *dw)) and den > 0
    assert result.w == tuple(Fraction(v, den) for v in nums)
    assert result.K == Fraction(min(nums), den) and any(result.K is x for x in result.w)
    assert result.total == Fraction(sum(map(abs, nums)), den)
    assert result.residual_range == (Fraction(dw[0], den), Fraction(dw[1], den))
    # a replaced point re-derives every view, none carried over from the original
    forged = replace(result, nums=(min(nums) - den,) + nums[1:])
    assert not set(VIEWS) & set(vars(forged))
    assert forged.w == (result.K - 1,) + result.w[1:]
    assert forged.K == result.K - 1 and forged.K is forged.w[0]
    assert forged.total == result.total - abs(result.w[0]) + abs(result.K - 1)
    assert forged.residual_range == result.residual_range
