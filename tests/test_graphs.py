"""Graph construction, family generators, products, and BFS metrics."""

import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from apsp_reference import reference_apsp
from graph_reference import reference_cartesian_product
from hypothesis import given, settings
from hypothesis import strategies as st

import eqcurv.graphs as graphs_module
from eqcurv import (
    FAMILY_NAMES,
    DisconnectedGraphError,
    DistanceMatrix,
    FamilySpec,
    FamilySpecError,
    Graph,
    MAX_FAMILY_VERTICES,
    GraphFormatError,
    apsp,
    cartesian_product,
    generate,
    is_connected,
    parse_edge_list,
    parse_family_spec,
)


def fam(text):
    return generate(parse_family_spec(text))


class TestGraphType:
    def test_normalizes_edge_orientation(self):
        g = Graph(3, frozenset({(2, 1), (0, 1)}))
        assert g.edges == {(1, 2), (0, 1)}

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside vertex range"):
            Graph(2, frozenset({(0, 2)}))

    def test_adjacency_and_degree(self):
        g = Graph(4, frozenset({(0, 1), (1, 2), (1, 3)}))
        assert g.adjacency_matrix.sum(axis=1).tolist() == [1, 3, 1, 1]
        assert (1, 3) in g.edges
        assert (0, 3) not in g.edges

    def test_adjacency_matrix_is_read_only_and_symmetric(self):
        g = Graph(4, frozenset({(0, 1), (1, 2), (1, 3)}))
        adj = g.adjacency_matrix
        assert adj.dtype == bool and not adj.flags.writeable
        assert adj.astype(int).tolist() == [[0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]]
        assert not Graph(1, frozenset()).adjacency_matrix.any()

    def test_labels_must_match_length(self):
        with pytest.raises(ValueError, match="labels"):
            Graph(2, frozenset({(0, 1)}), labels=("a",))

    @pytest.mark.parametrize("edges", [
        [(0, 1.5), (1, 2)],
        frozenset({(0, 1), (1.0, 2)}),
        [(0, 1), (np.float64(1), 2)],
        np.array([[0, 1.5], [1, 2]]),
        [(0, 1), (1, "2")],
    ])
    def test_rejects_endpoints_that_are_not_integers(self, edges):
        # an int64 conversion would truncate 1.5 and build the edge (0, 1)
        with pytest.raises(ValueError, match="not an integer"):
            Graph(3, edges)


class TestParseEdgeList:
    def test_path_on_three_vertices(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edges == {(0, 1), (1, 2)}

    def test_duplicate_lines_collapse(self):
        g = parse_edge_list("0 1\n0 1")
        assert g.n == 2
        assert g.edge_count == 1

    def test_duplicate_and_reversed_lines_give_an_equal_graph(self):
        g = parse_edge_list("2 1\n0 1\n1 2\n1 0\n2 1\n")
        assert g == Graph(3, frozenset({(0, 1), (1, 2)}))
        assert g.pairs.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 0")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n1 2 3")

    def test_non_integer_token(self):
        with pytest.raises(GraphFormatError, match="integers"):
            parse_edge_list("0 x")

    def test_negative_index(self):
        with pytest.raises(GraphFormatError, match="negative"):
            parse_edge_list("-1 2")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# triangle\n0 1\n\n1 2  # closing\n0 2\n")
        assert g.n == 3
        assert g.edge_count == 3

    def test_empty_input(self):
        with pytest.raises(GraphFormatError, match="no edges"):
            parse_edge_list("# nothing\n")

    def test_oversized_vertex_index_refused_before_building(self):
        # "0 100000000" would otherwise build a graph on 10^8 vertices
        with pytest.raises(GraphFormatError, match="line 2: vertex 100000000 would make "
                                                   "100000001 vertices; the limit is 4096"):
            parse_edge_list("0 1\n0 100000000\n")
        with pytest.raises(GraphFormatError, match="4097 vertices"):
            parse_edge_list(f"{MAX_FAMILY_VERTICES} 0")


class TestFamilySpec:
    def test_parse_with_args(self):
        spec = parse_family_spec("johnson:4,2")
        assert spec.family == "johnson"
        assert spec.params == (4, 2)

    def test_aliases(self):
        assert parse_family_spec("knight:3,3").family == "knight_board"
        assert parse_family_spec("cp:3").family == "cocktail_party"

    def test_float_parameter(self):
        spec = parse_family_spec("erdos_renyi:10,0.4,3")
        assert spec.params == (10, 0.4, 3)

    def test_unknown_family_lists_catalog(self):
        with pytest.raises(FamilySpecError, match="cycle"):
            parse_family_spec("moebius:5")

    def test_bad_parameter_token(self):
        with pytest.raises(FamilySpecError, match="not a number"):
            parse_family_spec("cycle:x")

    def test_invalid_johnson_range(self):
        with pytest.raises(FamilySpecError, match="johnson"):
            generate(FamilySpec("johnson", (4, 0)))

    def test_cycle_too_small(self):
        with pytest.raises(FamilySpecError):
            generate(FamilySpec("cycle", (2,)))

    @pytest.mark.parametrize(
        "text, count",
        [
            ("hypercube:20", "1048576"),
            ("johnson:40,20", "137846528820"),
            ("cocktail_party:1000000000", "2000000000"),
            ("erdos_renyi:1000000000,0.5,1", "1000000000"),
            ("hypercube:64", r"at least 2\^64"),
            ("johnson:200,100", r"at least 2\^64"),
        ],
    )
    def test_oversized_family_refused_before_building(self, text, count):
        message = f"{count} vertices; the limit is {MAX_FAMILY_VERTICES}"
        with pytest.raises(FamilySpecError, match=message):
            fam(text)

    def test_str_round_trip(self):
        spec = parse_family_spec("knight:7,7")
        assert parse_family_spec(str(spec)) == spec


# per family: a valid member, a member below its range, and one past the
# vertex limit with its vertex count
CATALOG_CASES = {
    "complete": ((3,), (0,), (4097,), 4097),
    "cycle": ((4,), (2,), (5000,), 5000),
    "path": ((3,), (0,), (4097,), 4097),
    "hypercube": ((2,), (0,), (13,), 8192),
    "cocktail_party": ((2,), (1,), (2049,), 4098),
    "johnson": ((4, 2), (3, 5), (20, 10), 184756),
    "demicube": ((3,), (1,), (14,), 8192),
    "complete_multipartite": ((1, 2), (0, 2), (4000, 97), 4097),
    "knight_board": ((3, 4), (0, 3), (64, 65), 4160),
    "erdos_renyi": ((5, 0.5, 1), (5, 1.5, 1), (4097, 0.5, 1), 4097),
}


def test_catalog_cases_cover_every_family():
    assert tuple(CATALOG_CASES) == FAMILY_NAMES


@pytest.mark.parametrize("name", FAMILY_NAMES)
class TestCatalog:
    def refused(self, name, params):
        with pytest.raises(FamilySpecError, match=f"^family '{name}' expects "):
            generate(FamilySpec(name, params))

    def test_valid_member_builds(self, name):
        assert is_connected(generate(FamilySpec(name, CATALOG_CASES[name][0])))

    def test_wrong_arity(self, name):
        valid = CATALOG_CASES[name][0]
        self.refused(name, valid[:-1])
        if name != "complete_multipartite":  # takes any number of part sizes from two up
            self.refused(name, valid + (1,))

    def test_bool(self, name):
        valid = CATALOG_CASES[name][0]
        self.refused(name, (True,) + valid[1:])
        self.refused(name, valid[:-1] + (False,))

    def test_float_where_an_int_is_due(self, name):
        valid = CATALOG_CASES[name][0]
        self.refused(name, (float(valid[0]),) + valid[1:])
        self.refused(name, valid[:-1] + (float(valid[-1]),))

    def test_below_range(self, name):
        self.refused(name, CATALOG_CASES[name][1])

    def test_oversized_member_refused_before_building(self, name, monkeypatch):
        def build(*params):
            raise AssertionError("built an oversized member")

        entry = graphs_module._FAMILIES[name]
        monkeypatch.setitem(graphs_module._FAMILIES, name, entry[:-1] + (build,))
        *_, params, count = CATALOG_CASES[name]
        spec = FamilySpec(name, params)
        with pytest.raises(FamilySpecError, match=rf"^{re.escape(str(spec))} would have {count} "
                                                  rf"vertices; the limit is 4096$"):
            generate(spec)


class TestGenerators:
    def test_cycle_counts(self):
        g = fam("cycle:6")
        assert (g.n, g.edge_count) == (6, 6)

    def test_knight_7_7_counts(self):
        g = fam("knight:7,7")
        # closed form for knight-move pairs on an m x n board: 4mn - 6(m+n) + 8
        assert (g.n, g.edge_count) == (49, 4 * 49 - 6 * 14 + 8)
        assert g.edge_count == 120

    def test_johnson_4_2_counts_against_enumeration(self):
        # brute-force oracle: count 2-subset pairs of {0..3} meeting in 1 element
        subsets = list(combinations(range(4), 2))
        expected = sum(
            1 for a, b in combinations(subsets, 2) if len(set(a) & set(b)) == 1
        )
        g = fam("johnson:4,2")
        assert g.n == len(subsets) == 6
        assert g.edge_count == expected == 12

    def test_complete_graph(self):
        g = fam("complete:5")
        assert g.edge_count == 10
        assert (g.adjacency_matrix.sum(axis=1) == 4).all()

    def test_cocktail_party_omits_perfect_matching(self):
        g = fam("cocktail_party:4")
        assert g.n == 8
        assert g.edge_count == 8 * 7 // 2 - 4
        for i in range(4):
            assert (2 * i, 2 * i + 1) not in g.edges

    def test_hypercube_labels_and_counts(self):
        g = fam("hypercube:3")
        assert (g.n, g.edge_count) == (8, 12)
        assert g.labels[5] == "101"

    def test_demicube_is_connected_single_component(self):
        for n in range(2, 7):
            g = fam(f"demicube:{n}")
            assert g.n == 2 ** (n - 1)
            assert is_connected(g)

    def test_demicube_4_matches_cocktail_party_4(self):
        g = fam("demicube:4")
        assert (g.n, g.edge_count) == (8, 24)
        h = fam("cocktail_party:4")
        assert (h.n, h.edge_count) == (8, 24)

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(1, n)])
    def test_johnson_matches_the_pairwise_construction(self, n, k):
        # oracle: every pair of k-subsets, adjacent when they share k - 1 elements
        subsets = list(combinations(range(n), k))
        expected = {
            (i, j) for (i, a), (j, b) in combinations(enumerate(subsets), 2)
            if len(set(a) & set(b)) == k - 1
        }
        g = fam(f"johnson:{n},{k}")
        assert g.edges == expected
        assert g.labels == tuple("{" + ",".join(map(str, s)) + "}" for s in subsets)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_demicube_matches_the_pairwise_construction(self, n):
        # oracle: every pair of even-weight words, adjacent at Hamming distance 2
        verts = [v for v in range(1 << n) if bin(v).count("1") % 2 == 0]
        expected = {
            (i, j) for (i, a), (j, b) in combinations(enumerate(verts), 2)
            if bin(a ^ b).count("1") == 2
        }
        g = fam(f"demicube:{n}")
        assert g.edges == expected
        assert g.labels == tuple(format(v, f"0{n}b") for v in verts)

    def test_multipartite_table_rows(self):
        g = fam("complete_multipartite:1,1,1,4")
        assert (g.n, g.edge_count) == (7, 15)
        g = fam("complete_multipartite:1,1,1,1,3")
        assert (g.n, g.edge_count) == (7, 18)

    def test_erdos_renyi_deterministic(self):
        a = fam("erdos_renyi:12,0.4,9")
        b = fam("erdos_renyi:12,0.4,9")
        assert a.edges == b.edges
        c = fam("erdos_renyi:12,0.4,10")
        assert c.edges != a.edges

    def test_erdos_renyi_always_connected(self):
        for seed in range(15):
            assert is_connected(fam(f"erdos_renyi:8,0.3,{seed}"))

    def test_erdos_renyi_impossible_density_errors(self):
        with pytest.raises(FamilySpecError, match="p = 0 is never connected"):
            fam("erdos_renyi:5,0.0,1")

    def test_erdos_renyi_without_edges_fails_before_drawing(self, monkeypatch):
        def never(g):
            raise AssertionError("drew a graph")

        monkeypatch.setattr("eqcurv.graphs.is_connected", never)
        with pytest.raises(FamilySpecError, match="p = 0 is never connected for n = 4096"):
            fam(f"erdos_renyi:{MAX_FAMILY_VERTICES},0,1")
        # a single vertex is connected without an edge
        monkeypatch.undo()
        assert fam("erdos_renyi:1,0,1").n == 1


class TestCartesianProduct:
    def test_k2_times_k2_is_c4(self):
        g = cartesian_product(fam("complete:2"), fam("complete:2"))
        assert (g.n, g.edge_count) == (4, 4)
        assert (g.adjacency_matrix.sum(axis=1) == 2).all()
        assert is_connected(g)

    def test_q2_times_q2_matches_q4_counts(self):
        g = cartesian_product(fam("hypercube:2"), fam("hypercube:2"))
        # hypercube edge count: n * 2^(n-1)
        assert (g.n, g.edge_count) == (16, 4 * 2**3)

    def test_p2_times_p3_grid(self):
        g = cartesian_product(fam("path:2"), fam("path:3"))
        assert (g.n, g.edge_count) == (6, 7)

    def test_distances_add_coordinatewise(self):
        a = fam("erdos_renyi:5,0.6,3")
        b = fam("cycle:4")
        da, db = apsp(a).entries, apsp(b).entries
        dp = apsp(cartesian_product(a, b)).entries
        for g1 in range(a.n):
            for h1 in range(b.n):
                for g2 in range(a.n):
                    for h2 in range(b.n):
                        assert dp[g1 * b.n + h1, g2 * b.n + h2] == da[g1, g2] + db[h1, h2]


class TestMetrics:
    def test_is_connected(self):
        assert is_connected(fam("cycle:5"))
        assert not is_connected(Graph(4, frozenset({(0, 1), (2, 3)})))

    def test_apsp_path3(self):
        d = apsp(fam("path:3"))
        assert d.entries.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_apsp_c6_row_sums(self):
        d = apsp(fam("cycle:6"))
        assert d.row_sums().tolist() == [9] * 6  # floor(36/4)

    def test_apsp_complete_all_ones(self):
        d = apsp(fam("complete:5"))
        off = d.entries[~np.eye(5, dtype=bool)]
        assert set(off.tolist()) == {1}

    def test_apsp_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            apsp(Graph(4, frozenset({(0, 1), (2, 3)})))

    def test_diameter_q4(self):
        assert apsp(fam("hypercube:4")).diameter() == 4

    def test_average_distance(self):
        assert apsp(fam("complete:5")).average_distance() == Fraction(4, 5)
        assert apsp(fam("cycle:6")).average_distance() == Fraction(3, 2)

    def test_constant_row_sum(self):
        assert apsp(fam("cycle:6")).constant_row_sum() == 9
        assert apsp(fam("path:3")).constant_row_sum() is None
        r = apsp(fam("johnson:4,2")).constant_row_sum()
        assert r == 6 and Fraction(6) / r == 1

    def test_hypercube_distance_is_hamming(self):
        for n in range(1, 7):
            g = fam(f"hypercube:{n}")
            d = apsp(g).entries
            for i in range(g.n):
                for j in range(g.n):
                    assert d[i, j] == bin(i ^ j).count("1")

    def test_distance_matrix_converts_integer_and_float_arrays(self):
        d = apsp(fam("path:3"))
        for entries in (d.entries.astype(np.float32), d.entries.astype(np.uint64),
                        d.entries.tolist(), d.entries.astype(float).tolist()):
            got = DistanceMatrix(entries).entries
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == d.entries.tolist()
        top = [[0, 2**63 - 1], [-(2**63), 0]]
        assert DistanceMatrix(top).entries.tolist() == top

    @pytest.mark.parametrize("bad", [1.5, 2.7, 1e19, -1e19, 2.0**63, float("nan"), float("inf"),
                                     2**63, -(2**63) - 1, 2**70, "1", 1j])
    def test_distance_matrix_refuses_entries_it_would_truncate_or_wrap(self, bad):
        with pytest.raises(ValueError, match="finite integers within int64"):
            DistanceMatrix([[0, bad, 2], [1, 0, 1], [2, 1, 0]])

    def test_distance_matrix_refuses_uint64_past_int64(self):
        with pytest.raises(ValueError, match="finite integers within int64"):
            DistanceMatrix(np.array([[0, 2**63], [1, 0]], dtype=np.uint64))

    def test_johnson_distance_law(self):
        for n in range(2, 9):
            for k in range(1, n):
                g = fam(f"johnson:{n},{k}")
                subsets = list(combinations(range(n), k))
                d = apsp(g).entries
                for i, a in enumerate(subsets):
                    for j, b in enumerate(subsets):
                        assert d[i, j] == k - len(set(a) & set(b))


def small_family_specs():
    specs = [FamilySpec("complete", (n,)) for n in range(2, 7)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 9)]
    specs += [FamilySpec("path", (n,)) for n in range(2, 9)]
    specs += [FamilySpec("hypercube", (n,)) for n in range(1, 5)]
    specs += [FamilySpec("cocktail_party", (n,)) for n in range(2, 6)]
    specs += [FamilySpec("johnson", (n, k)) for n in range(3, 7) for k in range(1, n)]
    specs += [FamilySpec("demicube", (n,)) for n in range(2, 6)]
    specs += [FamilySpec("knight_board", (4, 4)), FamilySpec("knight_board", (3, 5))]
    specs += [FamilySpec("erdos_renyi", (n, 0.5, s)) for n in (5, 9, 13) for s in (0, 1)]
    return specs


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(small_family_specs()))
def test_distance_matrix_invariants_hold_for_families(spec):
    g = generate(spec)
    if not is_connected(g):
        return
    assert apsp(g) == reference_apsp(g)


@settings(max_examples=20, deadline=None)
@given(
    left=st.sampled_from(small_family_specs()[:30]),
    right=st.sampled_from(small_family_specs()[:30]),
)
def test_distance_matrix_invariants_hold_for_products(left, right):
    a, b = generate(left), generate(right)
    if a.n * b.n > 150 or not is_connected(a) or not is_connected(b):
        return
    g = cartesian_product(a, b)
    assert (g.n, g.edges, g.labels) == reference_cartesian_product(
        a.n, a.edges, a.labels, b.n, b.edges, b.labels
    )
    assert apsp(g) == reference_apsp(g)
