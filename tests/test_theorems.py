"""Theorem verifiers: spectral gap, the inequality suite, and the product law."""

import math
from dataclasses import asdict, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcurv import (
    CurvatureStatus,
    DistanceMatrix,
    Graph,
    SpectralInfo,
    apsp,
    cartesian_product,
    check_bonnet_myers,
    check_lichnerowicz,
    check_minimax,
    check_product_curvature,
    check_reverse_bonnet_myers,
    check_theorem5,
    compute_curvature,
    curvature,
    curvature_of_family,
    generate,
    nullspace_sum_check,
    parse_family_spec,
    perron_alignment,
    spectral_criterion,
    spectral_gap,
    symmetric_eigen,
    theorems,
)


def fam(text):
    return generate(parse_family_spec(text))


def analyzed(text):
    g = fam(text)
    dm = apsp(g)
    return g, dm, compute_curvature(g, dm), spectral_gap(g)


class TestSpectralGap:
    def test_cycle6_gap(self):
        info = spectral_gap(fam("cycle:6"))
        assert abs(info.lambda1 - 4 * math.sin(math.pi / 6) ** 2) <= 1e-8
        assert abs(info.lambda1 - 1.0) <= 1e-8

    def test_complete4_gap(self):
        assert abs(spectral_gap(fam("complete:4")).lambda1 - 4.0) <= 1e-9

    def test_p2_gap(self):
        assert abs(spectral_gap(fam("path:2")).lambda1 - 2.0) <= 1e-12

    def test_smallest_laplacian_eigenvalue_is_zero(self):
        for text in ("cycle:7", "path:6", "erdos_renyi:10,0.5,3"):
            info = spectral_gap(fam(text))
            assert abs(info.laplacian_spectrum[0]) <= 1e-8
            assert info.lambda1 > 0

    def test_perron_data_for_complete_graph(self):
        info = spectral_gap(fam("complete:6"))
        assert abs(info.c_G - 1.0) <= 1e-12
        assert min(info.perron_vector) > 0

    def test_perron_data_for_hypercube(self):
        info = spectral_gap(fam("hypercube:4"))
        assert abs(info.c_G - 1.0) <= 1e-12
        assert min(info.perron_vector) > 0

    def test_circulant_has_constant_perron_vector(self):
        info = spectral_gap(fam("cycle:8"))
        assert abs(info.c_G - 1.0) <= 1e-9

    def test_p5_alignment_in_range_and_matches_lapack(self):
        g = fam("path:5")
        info = spectral_gap(g)
        d = apsp(g).entries.astype(float)
        lam, vec = np.linalg.eigh(d)
        v = vec[:, -1]
        if v.sum() < 0:
            v = -v
        ref = v.sum() / (np.linalg.norm(v) * math.sqrt(5))
        assert abs(info.c_G - ref) <= 1e-9
        assert 1 / math.sqrt(2) <= info.c_G <= 1.0

    def test_distance_spectrum_descending(self):
        info = spectral_gap(fam("erdos_renyi:9,0.5,1"))
        assert list(info.distance_spectrum) == sorted(info.distance_spectrum, reverse=True)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError, match="two vertices"):
            spectral_gap(fam("path:1"))

    def test_equals_a_symmetric_eigen_recomputation_on_the_atlas(self):
        # spectral_gap hands both matrices to eigh as they are; symmetric_eigen's
        # (M + M^T) / 2 leaves an exactly symmetric matrix unchanged, so every
        # float must come out the same, bit for bit
        nx = pytest.importorskip("networkx")
        graphs = 0
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() < 2 or not nx.is_connected(h):
                continue
            g = Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))
            adj = g.adjacency_matrix.astype(float)
            lap = symmetric_eigen(np.diag(adj.sum(axis=1)) - adj)
            dist = symmetric_eigen(g.distance_matrix.entries.astype(float))
            v = dist.eigenvectors[:, 0].copy()
            if v.sum() < 0:
                v = -v
            lap_asc = tuple(float(x) for x in lap.eigenvalues[::-1])
            expected = SpectralInfo(
                lambda1=lap_asc[1],
                laplacian_spectrum=lap_asc,
                distance_spectrum=tuple(float(x) for x in dist.eigenvalues),
                perron_vector=tuple(float(x) for x in v),
                c_G=float(v.sum() / (np.linalg.norm(v) * math.sqrt(g.n))),
            )
            ours = spectral_gap(g)
            for field in ("laplacian_spectrum", "distance_spectrum", "perron_vector"):
                got, want = getattr(ours, field), getattr(expected, field)
                assert [x.hex() for x in got] == [x.hex() for x in want], (h.name, field)
            assert (ours.lambda1.hex(), ours.c_G.hex()) == (expected.lambda1.hex(), expected.c_G.hex())
            graphs += 1
        assert graphs == 995


class TestBonnetMyers:
    def test_q4_equality_and_rigidity(self):
        g, dm, result, _ = analyzed("hypercube:4")
        report = check_bonnet_myers(g, result, dm)
        assert report.hypothesis_satisfied and report.passed
        assert any("diam * K == 2" in n for n in report.notes)
        # rigidity check entry is present and holds
        assert any("constant curvature" in c.label and c.holds for c in report.checks)

    def test_rigidity_counts_the_values_of_a_forged_w(self):
        # a forged point that raises one entry by 1 keeps K, so diam * K == 2
        # still holds, and has two distinct values
        g, dm, result, _ = analyzed("hypercube:4")
        forged = replace(result, nums=result.nums[:-1] + (result.nums[0] + result.den,))
        report = check_bonnet_myers(g, forged, dm)
        rigidity = report.checks[-1]
        assert rigidity.label == "diam*K == 2 implies constant curvature"
        assert rigidity.lhs.exact == "2" and not rigidity.holds
        assert report.failed

    def test_complete5(self):
        g, dm, result, _ = analyzed("complete:5")
        report = check_bonnet_myers(g, result, dm)
        assert report.passed
        # diam = 1 <= 2/(5/4) = 8/5
        first = report.checks[0]
        assert first.lhs.value == 1.0 and first.rhs.exact == "8/5"

    def test_cycle7_closed_forms(self):
        g, dm, result, _ = analyzed("cycle:7")
        assert result.K == Fraction(7, 12)
        report = check_bonnet_myers(g, result, dm)
        assert report.passed
        assert dm.diameter() == 3
        assert Fraction(2) / result.K == Fraction(24, 7)

    def test_zero_curvature_path_hypothesis_met_but_no_rigidity(self):
        g, dm, result, _ = analyzed("path:3")
        report = check_bonnet_myers(g, result, dm)
        assert report.hypothesis_satisfied and report.passed
        assert any("2/K bound is vacuous" in n for n in report.notes)

    def test_inconsistent_graph_not_applicable(self):
        g, dm, result, _ = analyzed("complete_multipartite:1,1,1,4")
        report = check_bonnet_myers(g, result, dm)
        assert not report.hypothesis_satisfied
        assert report.passed and not report.failed


class TestReverseBonnetMyers:
    def test_complete5_equality_detects_completeness(self):
        g, dm, result, _ = analyzed("complete:5")
        report = check_reverse_bonnet_myers(g, result, dm)
        assert report.passed
        assert result.total == Fraction(25, 4)
        assert any("complete" in n for n in report.notes)

    def test_cycle6(self):
        g, dm, result, _ = analyzed("cycle:6")
        report = check_reverse_bonnet_myers(g, result, dm)
        assert report.passed
        assert result.total == 4
        assert report.checks[0].rhs.exact == str(Fraction(36, 5 * 3))

    def test_q3(self):
        g, dm, result, _ = analyzed("hypercube:3")
        report = check_reverse_bonnet_myers(g, result, dm)
        assert report.passed
        assert result.total == Fraction(16, 3)
        assert report.checks[0].rhs.exact == str(Fraction(64, 21))


class TestLichnerowicz:
    def test_cycle12_sharpness_values(self):
        g, dm, result, info = analyzed("cycle:12")
        report = check_lichnerowicz(g, result, info)
        assert report.passed
        expected_gap = 4 * math.sin(math.pi / 12) ** 2
        assert abs(info.lambda1 - expected_gap) <= 1e-8
        assert result.K / (2 * 12) == Fraction(1, 72)

    def test_complete3(self):
        g, dm, result, info = analyzed("complete:3")
        report = check_lichnerowicz(g, result, info)
        assert report.passed
        assert result.K / (2 * 3) == Fraction(1, 4)
        assert abs(info.lambda1 - 3.0) <= 1e-9

    def test_q3_hypercube_gap_is_two(self):
        g, dm, result, info = analyzed("hypercube:3")
        report = check_lichnerowicz(g, result, info)
        assert report.passed
        assert abs(info.lambda1 - 2.0) <= 1e-8
        assert result.total / (2 * 64) == Fraction(1, 24)

    def test_path_hypothesis_unmet(self):
        g, dm, result, info = analyzed("path:4")
        report = check_lichnerowicz(g, result, info)
        assert not report.hypothesis_satisfied
        assert not report.failed


class TestMinimax:
    def test_cycle6_uniform_measure_is_flat(self):
        g, dm, result, _ = analyzed("cycle:6")
        report = check_minimax(g, result, dm=dm)
        assert report.passed
        alpha = Fraction(6) / result.total
        assert alpha == Fraction(3, 2)
        uniform_checks = [c for c in report.checks if c.label.startswith("uniform")]
        assert all(c.holds for c in uniform_checks)
        # constant row sums: both uniform sides equal alpha
        assert uniform_checks[0].lhs.exact == "3/2"
        assert uniform_checks[1].rhs.exact == "3/2"

    def test_q3_sharp_measure(self):
        g, dm, result, _ = analyzed("hypercube:3")
        report = check_minimax(g, result, dm=dm)
        assert report.passed
        assert Fraction(8) / result.total == Fraction(3, 2)
        sharp = [c for c in report.checks if c.label.startswith("nu*")]
        assert len(sharp) == 2 and all(c.holds for c in sharp)

    def test_point_mass_min_side_zero(self):
        g, dm, result, _ = analyzed("complete:4")
        report = check_minimax(g, result, dm=dm)
        zero_check = next(c for c in report.checks if "0 <= alpha" in c.label)
        assert zero_check.holds

    def test_random_battery_on_sample_graphs(self):
        # seven exact checks, the last one proving the bracketing for every nu
        for text in ("erdos_renyi:9,0.5,7", "johnson:5,2", "cocktail_party:3"):
            g, dm, result, _ = analyzed(text)
            report = check_minimax(g, result, dm=dm)
            assert report.hypothesis_satisfied, text
            assert report.passed, text
            assert len(report.checks) == 7, text
            assert all(c.exact_arithmetic for c in report.checks), text
            every = report.checks[-1]
            assert every.label.startswith("every nu") and every.holds, text
            assert (every.lhs.exact, every.rhs.exact) == ("1", "1"), text

    def test_seed_is_ignored(self):
        g, dm, result, _ = analyzed("knight_board:3,4")
        assert check_minimax(g, result, seed=5, dm=dm) == check_minimax(g, result)

    def test_asymmetric_distance_matrix_fails_the_proof(self):
        # the same result with one entry of D moved off the diagonal mirror:
        # nu* still equalizes, but nu.(D nu*) = nu*.(D nu) no longer holds
        g, dm, result, _ = analyzed("cycle:6")
        entries = dm.entries.copy()
        entries[0, 3] += 1
        report = check_minimax(g, result, dm=DistanceMatrix(entries))
        every = report.checks[-1]
        assert every.label.startswith("every nu")
        assert not every.holds and every.lhs.exact == "0" and every.rhs.exact == "1"
        assert report.failed

    def test_residuals_off_n_fail_the_proof(self):
        # a forged exact result with K >= 0 whose D w is not n * 1
        g, dm, result, _ = analyzed("cycle:6")
        n, den = g.n, result.den
        forged = replace(result, dw=(n * den, (n + 1) * den))
        report = check_minimax(g, forged, dm=dm)
        assert report.hypothesis_satisfied
        every = report.checks[-1]
        assert every.label.startswith("every nu")
        assert not every.holds and every.lhs.exact == "1" and every.rhs.exact == "0"
        assert report.failed

    def test_negative_curvature_not_applicable(self):
        g, dm, result, _ = analyzed("erdos_renyi:9,0.4,5")
        assert result.K < 0
        report = check_minimax(g, result, dm=dm)
        assert not report.hypothesis_satisfied and not report.failed

    def test_uniform_measure_is_flat_on_constant_curvature_graphs(self):
        # constant row sums R make every entry of D(uniform) equal R/n, which
        # must coincide with the game value n/||w||_1
        for text in ("cycle:7", "hypercube:3", "johnson:6,2", "cocktail_party:4"):
            g, dm, result, _ = analyzed(text)
            report = check_minimax(g, result, dm=dm)
            uniform = [c for c in report.checks if c.label.startswith("uniform")]
            alpha = Fraction(g.n) / result.total
            assert Fraction(uniform[0].lhs.exact) == alpha, text
            assert Fraction(uniform[1].rhs.exact) == alpha, text


# exact graphs with K >= 0: closed-form families and random graphs, some with
# constant curvature, some with a nonconstant unique or canonical solution
MINIMAX_ORACLE_SPECS = (
    "cycle:5", "cycle:6", "path:4", "complete:4", "hypercube:3", "johnson:5,2",
    "cocktail_party:3", "demicube:4", "knight_board:3,4", "complete_multipartite:2,3",
    "erdos_renyi:5,0.5,9", "erdos_renyi:6,0.5,8", "erdos_renyi:6,0.6,10",
    "erdos_renyi:7,0.5,1", "erdos_renyi:8,0.5,8", "erdos_renyi:9,0.5,7",
    "erdos_renyi:10,0.5,3",
)


@lru_cache(maxsize=None)
def minimax_case(text):
    g, dm, result, _ = analyzed(text)
    assert result.is_exact and result.K >= 0, text
    return g, [[int(d) for d in row] for row in dm.entries.tolist()], result


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(MINIMAX_ORACLE_SPECS), data=st.data())
def test_minimax_bracketing_holds_for_drawn_rational_measures(text, data):
    # nu = weights / sum over the rationals: the bracketing that check_minimax
    # proves for every nu must hold for each one, with no slack
    g, rows, result = minimax_case(text)
    weights = data.draw(st.lists(st.integers(1, 10**6), min_size=g.n, max_size=g.n))
    total = sum(weights)
    nu = [Fraction(x, total) for x in weights]
    d_nu = [sum(d * x for d, x in zip(row, nu)) for row in rows]
    alpha = Fraction(g.n) / result.total
    assert min(d_nu) <= alpha <= max(d_nu)
    assert check_minimax(g, result).passed


class TestTheorem5:
    def test_exact_solution_weights_reduce_to_8_over_k(self):
        g, dm, result, info = analyzed("cycle:6")
        report = check_theorem5(g, result.w, info)
        assert report.passed
        # ||Dw||_inf == n, so the bound is diam <= 8/K: 3 <= 12
        diam_check = report.checks[0]
        assert diam_check.lhs.value == 3.0
        assert diam_check.rhs.exact == "12"

    def test_all_ones_on_cycle8(self):
        g, dm, result, info = analyzed("cycle:8")
        report = check_theorem5(g, [1] * 8, info)
        assert report.passed
        # K = 1, ||Dw||_inf = max row sum = floor(64/4) = 16
        assert report.checks[0].rhs.exact == str(Fraction(16, 8) * 8)

    def test_pseudo_solution_on_exceptional_graph(self):
        g, dm, result, info = analyzed("complete_multipartite:1,1,1,4")
        assert result.status is CurvatureStatus.INCONSISTENT
        w = result.w
        assert min(w) > 0  # entries within [21/32, 63/64]
        report = check_theorem5(g, w, info)
        assert report.passed
        # the exact pseudo solution runs the integer path
        assert report.checks[0].exact_arithmetic
        assert Fraction(report.checks[0].rhs.exact).denominator > 1
        # float weights are taken at their exact dyadic values, and 21/32 and
        # 63/64 are dyadic, so the floats give the same report
        assert check_theorem5(g, [float(x) for x in w], info) == report

    @pytest.mark.parametrize("text", ["cycle:8", "path:6", "erdos_renyi:12,0.4,2",
                                      "complete_multipartite:1,1,1,4"])
    def test_weight_types_give_equal_reports(self, text):
        g, dm, result, info = analyzed(text)
        ints = [1 + i % 3 for i in range(g.n)]
        reference = asdict(check_theorem5(g, ints, info))
        for weights in ([np.int64(x) for x in ints], np.array(ints), [Fraction(x) for x in ints],
                        [float(x) for x in ints], tuple(ints)):
            assert asdict(check_theorem5(g, weights, info)) == reference

    def test_python_ints_skip_fractions_and_bools_do_not(self, monkeypatch):
        g, dm, result, info = analyzed("cycle:5")
        reference = asdict(check_theorem5(g, [1] * 5, info))
        seen = []
        real = theorems._exact_weight
        monkeypatch.setattr(theorems, "_exact_weight", lambda x: seen.append(x) or real(x))
        assert asdict(check_theorem5(g, [1] * 5, info)) == reference
        assert seen == []
        # bool is a subclass of int, but only a plain int takes the integer path
        assert asdict(check_theorem5(g, [True] * 5, info)) == reference
        assert seen == [True] * 5

    @pytest.mark.parametrize("base", [2**62, 2**63 - 25, 2**63 - 24, 2**70])
    def test_huge_integer_weights_stay_exact(self, base):
        # the largest of the 9 weights is base + 24: up to 2^63 - 1 they go to
        # integer_matmul as int64, from 2^63 on as Python ints; either way |w|
        # passes 2^53, so it cuts them into float64 limbs, and both must match
        # plain integer arithmetic
        g, dm, result, info = analyzed("erdos_renyi:9,0.5,1")
        assert g.n == 9
        w = [base + 3 * i for i in range(g.n)]
        rows = dm.entries.tolist()
        dw_inf = max(sum(d * x for d, x in zip(row, w)) for row in rows)
        report = check_theorem5(g, w, info)
        assert report.checks[0].rhs.exact == str(Fraction(dw_inf, g.n) * Fraction(8, base))
        assert report.checks[1].rhs.exact == str(Fraction(base, 8 * dw_inf))
        assert asdict(report) == asdict(check_theorem5(g, [Fraction(x) for x in w], info))

    @pytest.mark.parametrize("bad", [0, -1, -2**70])
    def test_nonpositive_integer_raises_on_every_path(self, bad):
        g, dm, result, info = analyzed("cycle:5")
        for weights in ([1, 1, bad, 1, 1], [Fraction(1), 1, Fraction(bad), 1, 1]):
            with pytest.raises(ValueError, match="^theorem5 needs every entry of w to be positive$"):
                check_theorem5(g, weights, info)

    def test_nonpositive_entry_rejected(self):
        g, dm, result, info = analyzed("cycle:5")
        with pytest.raises(ValueError, match="positive"):
            check_theorem5(g, [1, 1, 0, 1, 1], info)
        with pytest.raises(ValueError, match="positive"):
            check_theorem5(g, [1.0, 1.0, -0.5, 1.0, 1.0], info)
        with pytest.raises(ValueError, match="finite"):
            check_theorem5(g, [1.0, np.nan, 1, 1, 1], info)


class TestSpectralCriterion:
    def test_complete3_predicts_solvable(self):
        g, dm, result, info = analyzed("complete:3")
        # spectrum (2, -1, -1), v = 1/sqrt(3): lhs 0 < rhs 1/3
        assert np.allclose(info.distance_spectrum, [2.0, -1.0, -1.0], atol=1e-9)
        report = spectral_criterion(info, result.status)
        assert report.hypothesis_satisfied
        assert report.checks[0].holds  # criterion true
        assert report.passed  # and sound

    def test_cycle6_no_contradiction(self):
        g, dm, result, info = analyzed("cycle:6")
        report = spectral_criterion(info, result.status)
        assert report.passed

    def test_lambda2_positive_not_applicable(self):
        # K_{3,3}: distance spectrum has a second positive eigenvalue (+1)
        g, dm, result, info = analyzed("complete_multipartite:3,3")
        assert info.distance_spectrum[1] > 1e-6
        report = spectral_criterion(info, result.status)
        assert not report.hypothesis_satisfied
        assert not report.failed

    def test_sound_on_exceptional_graphs(self):
        for text in (
            "complete_multipartite:1,1,1,4",
            "complete_multipartite:1,1,1,1,3",
            "knight:7,7",
        ):
            g, dm, result, info = analyzed(text)
            assert result.status is CurvatureStatus.INCONSISTENT
            report = spectral_criterion(info, result.status)
            assert report.passed, text  # never predicts solvable for these


class TestPerronAlignment:
    def test_complete_graph_alignment_is_one(self):
        info = spectral_gap(fam("complete:7"))
        report = perron_alignment(info)
        assert report.passed
        assert abs(info.c_G - 1.0) <= 1e-12

    def test_alignment_bound_on_samples(self):
        for text in ("path:9", "erdos_renyi:12,0.3,2", "knight:4,4"):
            report = perron_alignment(spectral_gap(fam(text)))
            assert report.passed, text


class TestFloatSlack:
    """The 1e-9 slack favours holding; the spectral criterion's favours no prediction."""

    # a float 0.5e-9 short of its bound is noise; 2e-9 short is a failure
    NOISE = 0.5e-9
    SHORT = 2e-9

    def test_lichnerowicz(self):
        g, dm, result, info = analyzed("cycle:6")
        bound = float(result.total / (2 * g.n**2))
        near = check_lichnerowicz(g, result, replace(info, lambda1=bound - self.NOISE))
        far = check_lichnerowicz(g, result, replace(info, lambda1=bound - self.SHORT))
        assert near.checks[0].rhs.value == bound
        assert near.checks[0].holds and near.passed
        assert not far.checks[0].holds and far.failed

    def test_theorem5_lambda(self):
        g, dm, result, info = analyzed("cycle:6")
        bound = check_theorem5(g, result.w, info).checks[1].rhs.value
        near = check_theorem5(g, result.w, replace(info, lambda1=bound - self.NOISE))
        far = check_theorem5(g, result.w, replace(info, lambda1=bound - self.SHORT))
        assert near.checks[1].holds and near.passed
        assert not far.checks[1].holds and far.failed

    def test_perron_alignment(self):
        info = spectral_gap(fam("path:4"))
        bound = 1.0 / math.sqrt(2.0)
        assert perron_alignment(replace(info, c_G=bound - self.NOISE)).passed
        assert perron_alignment(replace(info, c_G=bound - self.SHORT)).failed

    def test_spectral_criterion_makes_no_prediction_within_the_slack(self):
        info = spectral_gap(fam("complete:3"))
        # lambda_1 = 2, lambda_2 = -1: the criterion's right side is 1/3
        spectrum = replace(info, distance_spectrum=(2.0, -1.0, -1.0))

        def at(lhs):
            # the exact classification says inconsistent, so a prediction fails
            c_g = math.sqrt(1 - lhs)
            return spectral_criterion(replace(spectrum, c_G=c_g), CurvatureStatus.INCONSISTENT)

        near = at(1 / 3 - self.NOISE)
        assert near.checks[0].lhs.value == pytest.approx(1 / 3 - self.NOISE, abs=1e-15)
        assert not near.checks[0].holds
        assert near.notes == ("criterion does not hold: no prediction",)
        assert near.passed  # no prediction, so nothing to contradict
        far = at(1 / 3 - self.SHORT)
        assert far.checks[0].holds
        assert far.notes == ("criterion holds: predicts solvable",)
        assert far.failed  # a prediction the exact classification refutes


def rho_note(product, g, h):
    """The start of ``check_product_curvature``'s note for these three values of rho = n/S."""
    return f"rho(G x H) = {product}, rho(G) = {g}, rho(H) = {h};"


def connected_atlas_graphs(max_n):
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        if 0 < h.number_of_nodes() <= max_n and nx.is_connected(h):
            yield Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))


class TestProductCurvature:
    def test_c4_times_c4(self):
        report = check_product_curvature(fam("cycle:4"), fam("cycle:4"))
        assert report.hypothesis_satisfied and report.passed
        assert report.notes[0].startswith(rho_note(2, 1, 1))  # K = 1/2

    def test_q2_times_q2_matches_q4_closed_form(self):
        report = check_product_curvature(fam("hypercube:2"), fam("hypercube:2"))
        assert report.passed
        product = cartesian_product(fam("hypercube:2"), fam("hypercube:2"))
        r = compute_curvature(product)
        assert set(r.w) == {curvature_of_family(parse_family_spec("hypercube:4"))}

    def test_k2_times_k2_is_c4_curvature_one(self):
        report = check_product_curvature(fam("complete:2"), fam("complete:2"))
        assert report.passed
        assert report.notes[0].startswith(rho_note(1, "1/2", "1/2"))
        assert curvature_of_family(parse_family_spec("cycle:4")) == 1

    def test_non_constant_factor_adds_its_rho(self):
        # path:3 has no constant distance row sums, and n/S is still 1
        report = check_product_curvature(fam("path:3"), fam("cycle:4"))
        assert report.hypothesis_satisfied and report.passed
        assert report.notes[0].startswith(rho_note(2, 1, 1))

    @pytest.mark.parametrize("first,second,rho", [
        ("complete:1", "cycle:4", (1, 0, 1)), ("cycle:4", "complete:1", (1, 1, 0)),
    ])
    def test_one_vertex_factor_adds_rho_zero(self, first, second, rho):
        # K_1's D w = n * 1 reads 0 = 1, so rho(K_1) = 0, and K_1 x H is H
        report = check_product_curvature(fam(first), fam(second))
        assert report.hypothesis_satisfied and report.passed
        assert report.notes[0].startswith(rho_note(*rho))

    def test_the_law_holds_on_every_pair_of_atlas_graphs_up_to_five_vertices(self):
        graphs = list(connected_atlas_graphs(5))
        assert len(graphs) == 31
        pairs = [(g, h) for i, g in enumerate(graphs) for h in graphs[i:]]
        assert len(pairs) == 496
        for g, h in pairs:
            report = check_product_curvature(g, h)
            assert report.hypothesis_satisfied and report.passed, (g, h)

    @pytest.mark.parametrize("first,second,status,rho", [
        # inconsistent x consistent is consistent
        ("complete_multipartite:1,1,1,4", "path:4", CurvatureStatus.EXACT_CANONICAL, ("3/2", 0, "3/2")),
        # inconsistent x inconsistent is inconsistent
        ("complete_multipartite:1,1,1,4", "complete_multipartite:1,1,1,4", CurvatureStatus.INCONSISTENT, (0, 0, 0)),
        # S = 0 x anything has S = 0
        ("knight_board:4,4", "path:4", CurvatureStatus.EXACT_CANONICAL, ("inf", "inf", "3/2")),
        ("complete_multipartite:1,1,4", "complete_multipartite:1,1,4", CurvatureStatus.EXACT_CANONICAL,
         ("inf", "inf", "inf")),
        # cancelling rho: two graphs that the law predicts inconsistent
        ("complete_multipartite:1,1,6", "path:3", CurvatureStatus.INCONSISTENT, (0, -1, 1)),
        ("complete_multipartite:1,1,5", "path:5", CurvatureStatus.INCONSISTENT, (0, -2, 2)),
    ])
    def test_one_pair_of_each_kind(self, first, second, status, rho):
        g, h = fam(first), fam(second)
        report = check_product_curvature(g, h)
        assert report.hypothesis_satisfied and report.passed
        assert report.notes[0].startswith(rho_note(*rho))
        product = cartesian_product(g, h)
        assert nullspace_sum_check(product).exceptional is (status is CurvatureStatus.INCONSISTENT)
        assert compute_curvature(product).status is status

    def test_a_large_product_of_cheap_factors(self):
        # n = 1200, its D of rank at most 30 + 40
        report = check_product_curvature(fam("cycle:30"), fam("cycle:40"))
        assert report.passed
        assert report.notes[0].startswith(rho_note("35/2", "15/2", 10))

    def test_neither_the_max_min_lp_nor_the_row_sums_are_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(curvature, "lp_max_min", lambda *args: calls.append("lp_max_min"))
        monkeypatch.setattr(DistanceMatrix, "constant_row_sum", lambda dm: calls.append("constant_row_sum"))
        # path:4 x path:5 and the knight board have kernels, and cycles constant row sums
        for first, second in [("path:4", "path:5"), ("knight_board:4,4", "cycle:5"), ("cycle:4", "cycle:6")]:
            assert check_product_curvature(fam(first), fam(second)).passed
        assert calls == []

    @pytest.mark.parametrize("first,second", [
        ("cycle:4", "cycle:9"),  # finite rho
        ("complete_multipartite:1,1,4", "complete_multipartite:1,1,4"),  # both factor sums 0
    ])
    def test_a_forged_product_fails(self, monkeypatch, first, second):
        # path:36 has as many vertices as the true product, and another rho
        monkeypatch.setattr(theorems, "cartesian_product", lambda g, h: fam("path:36"))
        assert check_product_curvature(fam(first), fam(second)).failed

    @pytest.mark.parametrize("first,second", [
        ("path:4", "path:5"), ("path:6", "cycle:6"), ("cycle:4", "cycle:6"),
        ("cycle:8", "path:3"), ("path:2", "cycle:10"), ("path:7", "path:7"),
    ])
    def test_bonnet_myers_middle_bound_stays_sharp_on_products(self, first, second):
        # diam(G x H) = diam G + diam H, and with K >= 0 on both factors the
        # product's ||w||_1 is its S, so 2n/||w||_1 = 2 rho adds up as well
        g, h = fam(first), fam(second)
        product = cartesian_product(g, h)
        diam = [x.distance_matrix.diameter() for x in (g, h, product)]
        assert diam[2] == diam[0] + diam[1]
        for x, d in zip((g, h, product), diam):
            result = compute_curvature(x)
            assert result.K >= 0
            assert Fraction(2 * x.n) / result.total == d
            assert check_bonnet_myers(x, result).passed

    @pytest.mark.parametrize("text,expected", [("complete:3", Fraction(1, 2)), ("cycle:4", Fraction(1, 3))])
    def test_cube_power_divides_curvature_by_three(self, text, expected):
        g = fam(text)
        cubed = cartesian_product(cartesian_product(g, g), g)
        r = compute_curvature(cubed)
        assert r.is_exact
        assert set(r.w) == {expected}
        base = curvature_of_family(parse_family_spec(text))
        assert expected == base / 3
