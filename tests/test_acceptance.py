"""Acceptance gate: one test per criterion, each printing a PASS line.

The family-table and random-corpus computations are shared through
session-scoped fixtures, so the expensive work (256-vertex hypercube, 500
random graphs) runs once.
"""

import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest

from eqcurv import (
    CurvatureStatus,
    FamilySpec,
    Graph,
    apsp,
    cartesian_product,
    check_bonnet_myers,
    check_minimax,
    check_product_curvature,
    check_reverse_bonnet_myers,
    compute_curvature,
    curvature_of_family,
    generate,
    nullspace_sum_check,
    parse_family_spec,
    solve_exact,
    spectral_gap,
)
from eqcurv.cli import analyze_graph, run_corpus

CORPUS_SEED = 7
CORPUS_COUNT = 500


def family_table_specs():
    """Every closed-form family/parameter pair with parameters in 2..8."""
    specs = [FamilySpec("complete", (n,)) for n in range(2, 9)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 9)]  # C_2 is not simple
    specs += [FamilySpec("hypercube", (n,)) for n in range(2, 9)]
    specs += [FamilySpec("cocktail_party", (n,)) for n in range(2, 9)]
    specs += [FamilySpec("johnson", (n, k)) for n in range(2, 9) for k in range(1, n)]
    specs += [FamilySpec("demicube", (n,)) for n in range(2, 9)]
    return specs


@pytest.fixture(scope="session")
def family_results():
    out = {}
    for spec in family_table_specs():
        g = generate(spec)
        dm = apsp(g)
        out[str(spec)] = (spec, g, dm, compute_curvature(g, dm))
    return out


@pytest.fixture(scope="session")
def family_spectral(family_results):
    return {
        key: spectral_gap(g) for key, (spec, g, dm, _result) in family_results.items()
    }


@pytest.fixture(scope="session")
def corpus():
    records, summary = run_corpus(CORPUS_COUNT, 5, 40, p=None, seed=CORPUS_SEED)
    return records, summary


def test_criterion_01_closed_form_family_table(family_results):
    for key, (spec, g, dm, result) in family_results.items():
        expected = curvature_of_family(spec)
        assert result.status in (
            CurvatureStatus.EXACT_UNIQUE,
            CurvatureStatus.EXACT_CANONICAL,
        ), key
        assert set(result.w) == {expected}, key
        assert result.K == expected, key
        assert result.residual_range == (Fraction(g.n), Fraction(g.n)), key
    # path graphs: n/(n-1) at both endpoints, zero inside
    for n in range(2, 9):
        r = compute_curvature(generate(FamilySpec("path", (n,))))
        expected_vec = [Fraction(0)] * n
        expected_vec[0] = expected_vec[-1] = Fraction(n, n - 1)
        assert list(r.w) == expected_vec, f"path:{n}"
    print(f"\nACCEPTANCE 1 PASS: {len(family_results)} family instances + 7 paths "
          "match the closed forms with rational equality")


TABLE1_ROWS = {
    "complete_multipartite:1,1,1,4": ((0.65, 0.99), (5.25, 7.875)),
    "complete_multipartite:1,1,1,1,3": ((0.85, 1.15), (6.0, 8.0)),
    "knight_board:7,7": ((-10.93, 2.75), (46.42, 52.22)),
}

# the published ranges carry two decimals, so each endpoint gets 0.01 slack
TABLE1_TOLERANCE = 0.01

# the exact ranges of w = D^+ (n * 1) and of D w behind each published row
TABLE1_EXACT = {
    "complete_multipartite:1,1,1,4": (
        (Fraction(21, 32), Fraction(63, 64)), (Fraction(21, 4), Fraction(63, 8))),
    "complete_multipartite:1,1,1,1,3": (
        (Fraction(6, 7), Fraction(8, 7)), (Fraction(6), Fraction(8))),
    "knight_board:7,7": (
        (Fraction(-126371, 11552), Fraction(63553, 23104)), (Fraction(882, 19), Fraction(3969, 76))),
}


def test_criterion_02_exceptional_graph_table():
    table_tol = TABLE1_TOLERANCE
    for text, (w_range, dw_range) in TABLE1_ROWS.items():
        g = generate(parse_family_spec(text))
        result = compute_curvature(g)
        assert result.status is CurvatureStatus.INCONSISTENT, text
        w = result.w
        assert all(type(x) is Fraction for x in (*w, result.K, result.total)), text
        assert ((min(w), max(w)), result.residual_range) == TABLE1_EXACT[text], text
        assert w_range[0] - table_tol <= min(w) and max(w) <= w_range[1] + table_tol, text
        lo, hi = result.residual_range
        assert dw_range[0] - table_tol <= lo and hi <= dw_range[1] + table_tol, text
        # the pseudo solution is orthogonal to the kernel of D
        kernel = solve_exact(g.distance_matrix.entries, [0] * g.n).kernel_rows
        assert kernel.shape[0] == result.nullspace_dimension >= 1, text
        assert not any(sum(x * int(v) for x, v in zip(w, z)) for z in kernel), text
    print("\nACCEPTANCE 2 PASS: the three generable exceptional graphs classify "
          "as inconsistent and reproduce the published ranges within 0.01, "
          "with exact pseudo solutions orthogonal to ker D")


def test_criterion_03_cycle_lichnerowicz_sharpness():
    for n in range(6, 25):
        g = generate(FamilySpec("cycle", (n,)))
        dm = apsp(g)
        result = compute_curvature(g, dm)
        info = spectral_gap(g)
        assert abs(info.lambda1 - 4 * math.sin(math.pi / n) ** 2) <= 1e-8, n
        mid = result.total / (2 * n * n)
        assert info.lambda1 + 1e-9 >= float(mid), n
        assert mid >= result.K / (2 * n), n
    print("\nACCEPTANCE 3 PASS: cycle spectral gaps match 4 sin^2(pi/n) to 1e-8 "
          "and the Lichnerowicz chain holds for n in 6..24")


def test_criterion_04_bonnet_myers_sharpness(family_results):
    sharp = [f"hypercube:{n}" for n in range(1, 7)]
    sharp += [f"cycle:{2 * n}" for n in range(2, 9)]
    sharp += ["johnson:2,1", "johnson:4,2", "johnson:6,3"]
    for text in sharp:
        if text in family_results:
            _spec, g, dm, result = family_results[text]
        else:
            g = generate(parse_family_spec(text))
            dm = apsp(g)
            result = compute_curvature(g, dm)
        assert Fraction(dm.diameter()) * result.K == 2, text
        report = check_bonnet_myers(g, result, dm)
        assert report.hypothesis_satisfied and report.passed, text
        rigidity = [c for c in report.checks if "constant curvature" in c.label]
        assert rigidity and rigidity[0].holds, text
    print(f"\nACCEPTANCE 4 PASS: {len(sharp)} sharp instances achieve diam*K == 2 "
          "exactly and pass the rigidity clause")


def test_criterion_05_reverse_bonnet_myers_equality():
    for n in range(2, 11):
        g = generate(FamilySpec("complete", (n,)))
        dm = apsp(g)
        result = compute_curvature(g, dm)
        assert result.total == Fraction(n * n, (n - 1) * dm.diameter()), n
        report = check_reverse_bonnet_myers(g, result, dm)
        assert report.passed, n
        assert any("complete" in note for note in report.notes), n
    print("\nACCEPTANCE 5 PASS: K_n achieves the reverse bound with equality and "
          "is detected as complete for n in 2..10")


def test_criterion_06_minimax_battery(family_results):
    checked = 0
    for key, (spec, g, dm, result) in family_results.items():
        report = check_minimax(g, result, dm=dm)
        assert report.hypothesis_satisfied, key
        assert report.passed, key
        assert all(c.exact_arithmetic for c in report.checks), key
        sharp = [c for c in report.checks if c.label.startswith("nu*")]
        assert len(sharp) == 2 and all(c.holds for c in sharp), key
        every = [c for c in report.checks if c.label.startswith("every nu")]
        assert len(every) == 1 and every[0].holds, key
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: nu* sharpness and D = D^T prove the minimax bracketing "
          f"for every measure on {checked} constant-curvature instances")


def test_criterion_07_product_law():
    pool = (
        [f"complete:{n}" for n in range(2, 7)]
        + [f"cycle:{n}" for n in range(3, 9)]
        + ["hypercube:1", "hypercube:2", "hypercube:3"]
        + ["cocktail_party:2", "cocktail_party:3", "cocktail_party:4"]
        + ["johnson:4,2", "johnson:5,2", "johnson:6,3"]
        + ["demicube:3", "demicube:4"]
    )
    graphs = {text: generate(parse_family_spec(text)) for text in pool}
    rng = random.Random(CORPUS_SEED)
    pairs = []
    while len(pairs) < 20:
        a, b = rng.choice(pool), rng.choice(pool)
        if graphs[a].n * graphs[b].n <= 130:
            pairs.append((a, b))
    for a, b in pairs:
        report = check_product_curvature(graphs[a], graphs[b])
        assert report.hypothesis_satisfied, (a, b)
        assert report.passed, (a, b)
    # triple powers divide the curvature by three
    for text in ("complete:3", "cycle:4"):
        g = graphs[text]
        cubed = cartesian_product(cartesian_product(g, g), g)
        r = compute_curvature(cubed)
        base = curvature_of_family(parse_family_spec(text))
        assert set(r.w) == {base / 3}, text
    print("\nACCEPTANCE 7 PASS: 1/K = 1/K1 + 1/K2 with rational equality on 20 "
          "seeded pairs; G^3 has curvature K/3 for K_3 and C_4")


def test_criterion_08_random_corpus(corpus):
    records, summary = corpus
    assert summary["count"] == CORPUS_COUNT
    assert summary["verifier_failures"] == 0, summary["failing_graphs"]
    assert summary["theorem5_ones_failures"] == 0
    assert all(5 <= r["n"] <= 40 for r in records)
    statuses = summary["statuses"]
    assert sum(statuses.values()) == CORPUS_COUNT
    print(f"\nACCEPTANCE 8 PASS: {CORPUS_COUNT} seeded connected random graphs, "
          f"zero verifier failures (statuses: {statuses}); theorem-5 with "
          "all-ones weights passed on every graph")


def test_criterion_09_spectral_criterion_soundness(corpus):
    records, summary = corpus
    assert summary["spectral_criterion"]["unsound_predictions"] == 0
    for record in records:
        if record["criterion_true"]:
            assert record["status"] != "inconsistent", record
    # the three generable exceptional rows must not satisfy the criterion
    for text in TABLE1_ROWS:
        g = generate(parse_family_spec(text))
        dm = apsp(g)
        result = compute_curvature(g, dm)
        info = spectral_gap(g)
        from eqcurv import spectral_criterion

        report = spectral_criterion(info, result.status)
        assert report.passed, text
    print(f"\nACCEPTANCE 9 PASS: no criterion-true graph is inconsistent "
          f"({summary['spectral_criterion']['predicted_solvable']} predictions over "
          f"{summary['spectral_criterion']['applicable']} applicable corpus graphs + Table rows)")


def test_criterion_10_perron_alignment(corpus, family_spectral):
    records, summary = corpus
    bound = 1 / math.sqrt(2) - 1e-9
    assert summary["c_g"]["min"] >= bound
    worst_family = min(info.c_G for info in family_spectral.values())
    assert worst_family >= bound
    fraction = summary["c_g"]["fraction_above_0_95"]
    print(f"\nACCEPTANCE 10 PASS: c_G >= 1/sqrt(2) everywhere "
          f"(corpus min {summary['c_g']['min']:.6f}, family min {worst_family:.6f}); "
          f"fraction of corpus with c_G > 0.95: {fraction:.3f}")


# the two connected graphs on at most 7 vertices whose distance system has no
# solution, as numbered and labelled by networkx.graph_atlas_g(): atlas 1184 is
# K_{1,1,1,4} (the independent set 0, 1, 2, 6) and atlas 1245 is K_{1,1,1,1,3}
# (the independent set 4, 5, 6)
ATLAS_INCONSISTENT = {
    1184: ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
           (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)),
    1245: ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4),
           (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)),
}

# this test's own reading of each relation, applied to a check's exact sides
EXACT_RELATIONS = {
    "<=": operator.le,
    ">=": operator.ge,
    "==": operator.eq,
    "and": lambda a, b: bool(a and b),
}


def stated_consistently(check):
    """An exact check's verdict is its relation on its exact sides; any other has a float side.

    The spectral criterion's implication is the one exception: its sides are
    0/1 flags, but its premise is a float prediction.
    """
    if check.exact_arithmetic:
        lhs, rhs = Fraction(check.lhs.exact), Fraction(check.rhs.exact)
        return check.holds == EXACT_RELATIONS[check.relation](lhs, rhs)
    return None in (check.lhs.exact, check.rhs.exact) or check.relation == "=>"


def fold_exact(digest, result, reports) -> None:
    """Feed the exact part of one ``analyze_graph`` output to ``digest``.

    That is the status, w, K, the total, and every check's label, exact
    sides and verdict: everything that rational arithmetic decides.
    """
    lines = [result.status.value, ",".join(map(str, result.w)), str(result.K), str(result.total)]
    for r in reports:
        lines.append(f"{r.theorem} {r.hypothesis_satisfied} {r.passed}")
        lines += [f"{c.label}|{c.lhs.exact}|{c.relation}|{c.rhs.exact}|{c.holds}|{c.exact_arithmetic}"
                  for c in r.checks]
    digest.update(("\n".join(lines) + "\n").encode())


def fold_full(digest, result, info, reports) -> None:
    """``fold_exact`` plus every float: the SpectralInfo, each check's float sides, the notes."""
    fold_exact(digest, result, reports)
    floats = [info.lambda1, *info.laplacian_spectrum, *info.distance_spectrum,
              *info.perron_vector, info.c_G]
    lines = [" ".join(map(float.hex, floats))]
    for r in reports:
        lines.append(" ".join(f"{c.lhs.value.hex()} {c.rhs.value.hex()}" for c in r.checks))
        lines += r.notes
    digest.update(("\n".join(lines) + "\n").encode())


# sha256 of every analyze_graph output on the 995 connected atlas graphs, in
# atlas order: the exact part alone, and everything down to the last float bit
ATLAS_DIGEST_EXACT = "1fb048da662b6f5aa2b1091d6cb145379a558c90f1fdbdb12c642eae21990103"
ATLAS_DIGEST_FULL = "cc40cdedae1e8bbe9f32708bc6fef9fc0804287009edc4618b215cece03a415c"


def test_criterion_11_every_connected_graph_up_to_7_vertices():
    nx = pytest.importorskip("networkx")
    statuses = {status: 0 for status in CurvatureStatus}
    inconsistent = {}
    minimax_applicable = 0
    exact_digest, full_digest = hashlib.sha256(), hashlib.sha256()
    for index, h in enumerate(nx.graph_atlas_g()):
        if h.number_of_nodes() < 2 or not nx.is_connected(h):
            continue
        g = Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))
        dm = apsp(g)
        result, info, reports = analyze_graph(g)
        fold_exact(exact_digest, result, reports)
        fold_full(full_digest, result, info, reports)
        assert not [r.theorem for r in reports if r.failed], index
        checks = [c for r in reports for c in r.checks]
        assert [c.label for c in checks if not stated_consistently(c)] == [], index
        minimax = next(r for r in reports if r.theorem == "minimax")
        minimax_applicable += minimax.hypothesis_satisfied
        statuses[result.status] += 1
        if result.status is CurvatureStatus.INCONSISTENT:
            inconsistent[index] = tuple(sorted(g.edges))
        # a kernel vector with nonzero sum exactly when there is no exact solution
        assert nullspace_sum_check(g, dm).exceptional == (
            result.status is CurvatureStatus.INCONSISTENT
        ), index
    assert statuses == {
        CurvatureStatus.EXACT_UNIQUE: 787,
        CurvatureStatus.EXACT_CANONICAL: 206,
        CurvatureStatus.INCONSISTENT: 2,
    }
    assert inconsistent == ATLAS_INCONSISTENT
    # K >= 0 on 271 of the 993 exactly solvable graphs, and none failed above
    assert minimax_applicable == 271
    # the whole answer, bit for bit: a faster route may not change one output
    assert exact_digest.hexdigest() == ATLAS_DIGEST_EXACT
    assert full_digest.hexdigest() == ATLAS_DIGEST_FULL
    for text, edges in zip(["complete_multipartite:1,1,1,4", "complete_multipartite:1,1,1,1,3"],
                           ATLAS_INCONSISTENT.values()):
        family = generate(parse_family_spec(text))
        assert nx.is_isomorphic(nx.Graph(list(edges)), nx.Graph(list(family.edges))), text
    print("\nACCEPTANCE 11 PASS: all 995 connected graphs on 2..7 vertices: 787 "
          "exact_unique, 206 exact_canonical, 2 inconsistent (K_{1,1,1,4} and K_{1,1,1,1,3}); "
          "no verifier failed (minimax applicable and passed on 271), every exact check's "
          "verdict is its relation on its exact sides, and a nonzero kernel "
          "sum marks exactly the inconsistent ones")
