"""CLI contract: exit codes, JSON schema, determinism, and the DOT exporter."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

import eqcurv
import eqcurv.cli as cli_module
import eqcurv.curvature as curvature_module
import eqcurv.graphs as graphs_module
import eqcurv.linalg as linalg_module
import eqcurv.theorems as theorems_module
from eqcurv import (
    FAMILY_NAMES,
    CurvatureStatus,
    Graph,
    apsp,
    check_bonnet_myers,
    check_minimax,
    check_reverse_bonnet_myers,
    compute_curvature,
    generate,
    nullspace_sum_check,
    parse_family_spec,
)
from eqcurv.cli import (
    _THEOREMS,
    _parse_theorem_list,
    _plain,
    analyze_graph,
    build_analysis_report,
    main,
    render_dot,
    run_corpus,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_cycle6_reports_exact_k(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "cycle:6")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == "2"
        assert "lp_unbounded" not in report["curvature"]
        assert report["curvature"]["k"]["exact"] == "2/3"
        assert report["curvature"]["k"]["pseudo"] is False
        assert report["curvature"]["status"] == "exact_canonical"
        assert report["graph"]["n"] == 6

    def test_knight_7_7_is_inconsistent_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "knight:7,7")
        assert code == 2
        report = json.loads(out)
        assert report["curvature"]["status"] == "inconsistent"
        assert report["curvature"]["k"]["pseudo"] is True
        lo = report["curvature"]["residual_range"][0]["float"]
        hi = report["curvature"]["residual_range"][1]["float"]
        assert 46.42 - 0.01 <= lo and hi <= 52.22 + 0.01

    def test_edge_list_path3(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("0 1\n1 2\n")
        code, out, _ = run_cli(capsys, "compute", "--edge-list", str(path))
        assert code == 0
        report = json.loads(out)
        assert [x["exact"] for x in report["curvature"]["w"]] == ["3/2", "0", "3/2"]

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--edge-list", "/nonexistent/file.txt")
        assert code == 1
        assert "error:" in err

    def test_disconnected_edge_list_exit_1(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        code, _, err = run_cli(capsys, "compute", "--edge-list", str(path))
        assert code == 1
        assert "disconnected" in err

    def test_unknown_family_exit_1_lists_catalog(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "tesseract:4")
        assert code == 1
        assert "cycle" in err and "johnson" in err

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_help_names_every_family(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--help"])
        assert exc.value.code == 0
        # the --family help lists the catalog as "(complete, cycle, ..., erdos_renyi)"
        assert re.search(rf"[ (]{name}[,)]", capsys.readouterr().out)

    def test_oversized_family_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "compute", "--family", "hypercube:20")
        assert code == 1 and out == ""
        assert "hypercube:20 would have 1048576 vertices; the limit is 4096" in err

    def test_oversized_edge_list_exit_1(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("0 100000000\n")
        code, out, err = run_cli(capsys, "compute", "--edge-list", str(path))
        assert code == 1 and out == ""
        assert "vertex 100000000 would make 100000001 vertices; the limit is 4096" in err

    def test_single_vertex_is_inconsistent_exit_2(self, capsys):
        # D = [0] cannot meet D w = 1; the kernel vector (1) has sum 1
        code, out, _ = run_cli(capsys, "compute", "--family", "complete:1")
        assert code == 2
        report = json.loads(out)
        assert report["curvature"]["status"] == "inconsistent"
        assert report["curvature"]["nullspace_dimension"] == 1
        assert report["spectral"] is None

    def test_single_vertex_reports_the_exact_zero_pseudo_solution(self, capsys):
        # the pseudo-inverse of D = [0] is 0, reported exactly
        code, out, _ = run_cli(capsys, "compute", "--family", "complete:1")
        assert code == 2
        curvature = json.loads(out)["curvature"]
        assert curvature["w"] == [{"exact": "0", "float": 0.0}]
        assert curvature["k"] == {"exact": "0", "float": 0.0, "pseudo": True}
        assert curvature["residual_range"] == [{"exact": "0", "float": 0.0}] * 2

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "johnson:4,2")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        # exact strings reparse to the floats alongside them
        k = report["curvature"]["k"]
        assert float(Fraction(k["exact"])) == k["float"]
        avg = report["graph"]["average_distance"]
        assert float(Fraction(avg["exact"])) == avg["float"]


class TestVerify:
    def test_hypercube4_all_pass_with_sharpness_note(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "hypercube:4", "--theorems", "all")
        assert code == 0
        report = json.loads(out)
        names = [t["theorem"] for t in report["theorems"]]
        assert "bonnet_myers" in names and "minimax" in names
        bm = next(t for t in report["theorems"] if t["theorem"] == "bonnet_myers")
        assert bm["passed"] and any("diam * K == 2" in n for n in bm["notes"])

    def test_report_carries_no_seed(self, capsys):
        # nothing in verify is random: the report's seed is null, no theorem
        # report has one, and there is no --seed option to set
        code, out, _ = run_cli(capsys, "verify", "--family", "cycle:5", "--theorems", "minimax")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] is None
        (entry,) = report["theorems"]
        assert "seed" not in entry
        assert all(c["exact_arithmetic"] for c in entry["checks"])
        with pytest.raises(SystemExit):
            main(["verify", "--family", "cycle:5", "--seed", "0"])
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_complete5_reverse_bm_equality(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "complete:5", "--theorems", "reverse_bm"
        )
        assert code == 0
        report = json.loads(out)
        (entry,) = report["theorems"]
        assert entry["theorem"] == "reverse_bonnet_myers"
        assert any("complete" in n for n in entry["notes"])

    def test_path4_lichnerowicz_hypothesis_unmet(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "path:4", "--theorems", "lichnerowicz"
        )
        assert code == 0
        report = json.loads(out)
        (entry,) = report["theorems"]
        assert entry["hypothesis_satisfied"] is False
        assert entry["passed"] is True

    def test_single_vertex_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--family", "complete:1")
        assert code == 1
        assert out == ""
        assert "at least two vertices" in err

    @pytest.mark.parametrize("name, alias", [
        (name, alias) for name, (aliases, _) in _THEOREMS.items() for alias in aliases
    ])
    def test_every_alias_parses_to_its_theorem(self, name, alias):
        assert _parse_theorem_list(alias) == [name]

    def test_verifiers_call_the_checker_bound_in_the_cli_module(self, monkeypatch):
        # the benchmark tracer rebinds ``cli.check_*``; a catalog that captured
        # the function objects would bypass the rebound name
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return check_minimax(*args, **kwargs)

        monkeypatch.setattr(cli_module, "check_minimax", counting)
        analyze_graph(generate(parse_family_spec("cycle:6")))
        assert len(calls) == 1

    def test_unknown_theorem_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "cycle:5", "--theorems", "fermat")
        assert code == 1
        assert "unknown theorem" in err

    def test_theorem5_runs_both_weightings_when_positive(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "cycle:6", "--theorems", "theorem5")
        assert code == 0
        report = json.loads(out)
        notes = [n for t in report["theorems"] for n in t["notes"]]
        assert "weights: all-ones" in notes
        assert "weights: curvature solution" in notes

    def test_theorem5_uses_positive_pseudo_solution(self, capsys):
        # the pseudo vector of this exceptional graph is entrywise positive,
        # so the generalized bounds apply to it; the knight graph's is not
        code, out, _ = run_cli(
            capsys, "verify", "--family", "complete_multipartite:1,1,1,4",
            "--theorems", "theorem5",
        )
        assert code == 0
        notes = [n for t in json.loads(out)["theorems"] for n in t["notes"]]
        assert "weights: pseudo solution" in notes
        _, out, _ = run_cli(capsys, "verify", "--family", "knight:7,7", "--theorems", "theorem5")
        notes = [n for t in json.loads(out)["theorems"] for n in t["notes"]]
        assert "weights: pseudo solution" not in notes

    def test_exceptional_graph_exit_0_when_nothing_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "complete_multipartite:1,1,1,4", "--theorems", "all"
        )
        report = json.loads(out)
        failed = [t for t in report["theorems"] if t["hypothesis_satisfied"] and not t["passed"]]
        assert code == 0 and not failed


class TestCorpus:
    def test_small_corpus_no_failures(self, capsys):
        code, out, _ = run_cli(
            capsys, "corpus", "--count", "5", "--n-range", "5..12", "--seed", "7"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["count"] == 5
        assert summary["verifier_failures"] == 0
        assert sum(summary["statuses"].values()) == 5

    def test_p_one_forces_complete_graph(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "corpus", "--count", "1", "--n-range", "5..5", "--p", "1.0",
            "--seed", "3", "--json-lines",
        )
        assert code == 0
        lines = out.strip().splitlines()
        record = json.loads(lines[0])
        assert record["n"] == 5 and record["edge_count"] == 10
        assert record["status"] == "exact_unique"
        assert record["k_exact"] == "5/4"

    def test_same_seed_byte_identical(self, capsys):
        args = ("corpus", "--count", "4", "--n-range", "5..10", "--seed", "99", "--json-lines")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_different_seed_differs(self, capsys):
        _, out1, _ = run_cli(capsys, "corpus", "--count", "3", "--n-range", "5..10", "--seed", "1")
        _, out2, _ = run_cli(capsys, "corpus", "--count", "3", "--n-range", "5..10", "--seed", "2")
        assert out1 != out2

    def test_bad_range_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "corpus", "--count", "2", "--n-range", "10")
        assert code == 1
        assert "a..b" in err

    @pytest.mark.parametrize("text", ["5..", "..9", "a..9", "5..x", "5..9..12", "5.5..9"])
    def test_non_integer_range_end_exit_1(self, capsys, text):
        code, out, err = run_cli(capsys, "corpus", "--count", "2", "--n-range", text)
        assert code == 1 and out == ""
        assert f"range must look like 'a..b' with integer ends, got {text!r}" in err

    def test_run_corpus_validates_parameters(self):
        with pytest.raises(ValueError):
            run_corpus(0, 5, 10)
        with pytest.raises(ValueError):
            run_corpus(3, 8, 5)


class TestByteIdentity:
    """Pinned sha256 of whole outputs, float digits included.

    The corpus graphs come from one seeded stream, and every verifier is
    deterministic; a faster draw or solve must leave every bit unchanged.
    The hashes were recorded with numpy 2.4 (OpenBLAS) on x86-64.
    """

    def test_verify_all_on_hypercube6(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "hypercube:6", "--theorems", "all")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3509fe41f50af6b620aa9f43fb3664b059afc271649ac9da12cf6e2c5731072f"
        )

    def test_verify_all_on_a_canonical_random_graph(self, capsys):
        # the exact w is positive and not constant, so both theorem5 weightings
        # run on its exact integer path
        code, out, _ = run_cli(
            capsys, "verify", "--family", "erdos_renyi:8,0.6,8", "--theorems", "all"
        )
        assert code == 0
        assert '"status": "exact_canonical"' in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "22b40d6cb5b5cc438755e1fde6911835abd6d94c41cffd2f2de3f76753a97699"
        )

    @pytest.mark.parametrize("spec, marker, digest", [
        # K == 0: the 2/K bound is vacuous, Lichnerowicz is not applicable
        ("path:3", "K == 0: the 2/K bound is vacuous",
         "083da090ef51c6c460e42184f0dc39752220bdacfe4f9b448f973f0c97a3c868"),
        # the reverse Bonnet-Myers bound is an equality, so completeness is checked
        ("complete:5", "equality implies complete graph",
         "561e89f386f5d6a3bece1fd007ec41e9f64040c8e55a010a6e74cd6b54bf836f"),
        # K < 0: every curvature theorem reports its hypothesis unmet
        ("knight_board:4,4", "hypothesis not satisfied: K = -8/3 is negative",
         "1d87c7cbd8ad5e53e4688cc0641d905726268283ad5ab773a0aa5d503f8b8601"),
    ])
    def test_verify_all_beyond_positive_curvature(self, capsys, spec, marker, digest):
        code, out, _ = run_cli(capsys, "verify", "--family", spec, "--theorems", "all")
        assert code == 0
        assert marker in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_seeded_corpus_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "corpus", "--count", "6", "--n-range", "5..30", "--seed", "5", "--json-lines"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "800aa7628252e94c9d1395b6f757c06b7e9c624db4ed63f2cf025c087c51f9da"
        )

    def test_compute_on_the_inconsistent_knight_7_7(self, capsys):
        # the pseudo solution is exact, so every value has its "p/q" string
        code, out, _ = run_cli(capsys, "compute", "--family", "knight:7,7")
        assert code == 2
        curvature = json.loads(out)["curvature"]
        assert curvature["k"]["exact"] == "-126371/11552"
        assert [x["exact"] for x in curvature["residual_range"]] == ["882/19", "3969/76"]
        assert all(Fraction(x["exact"]) for x in curvature["w"])
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "92861ca0e6c65d39df6fc5927bc6c8b69909e95f483858e5e9696cef655f64ff"
        )

    def test_export_dot_knight_7_7(self, capsys, tmp_path):
        # the inconsistent graph's labels are exact fractions too
        out_path = tmp_path / "knight.dot"
        code, _, _ = run_cli(capsys, "export-dot", "--family", "knight:7,7", "--out", str(out_path))
        assert code == 0
        assert 'label="(0,1)\\n63553/23104"' in out_path.read_text()
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "55f5ea1795d7ff28d56cc17c2b66f15808c5e251a1bd0b0cfc75b312b4bbdb50"
        )

    def test_export_dot_knight_3_4(self, capsys, tmp_path):
        # the edge lines follow the sorted edge order, read off the pairs array
        out_path = tmp_path / "knight.dot"
        code, _, _ = run_cli(capsys, "export-dot", "--family", "knight:3,4", "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "3d5a9aea7403f9929bf1b60d241bc5ec473e24b1aab0dad337b4acd78a61d1aa"
        )


def families_reports():
    """The verifier reports of the benchmark's ``families`` items (``perfbench/workloads.py``)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for item in workloads.build_blocks("families", 1)[0]:
        yield from workloads.run_graph("families", item)["reports"]


class TestSharedValues:
    """One object per distinct value, and reports converted without a deep copy.

    ``dataclasses.asdict`` stays here as the reference for the report
    conversion; Fraction construction is counted by patching its ``__new__``.
    """

    def test_report_conversion_equals_asdict_on_the_connected_atlas(self):
        nx = pytest.importorskip("networkx")
        count = 0
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() < 2 or not nx.is_connected(h):
                continue
            g = Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))
            result, info, reports = analyze_graph(g)
            for report in reports:
                assert _plain(report) == asdict(report)
            built = build_analysis_report(g, "atlas", None, result, info, reports)
            assert built["theorems"] == [asdict(r) for r in reports]
            count += len(reports)
        assert count > 7 * 995

    def test_report_conversion_equals_asdict_on_the_families_items(self):
        reports = list(families_reports())
        assert len(reports) == 3 * 18
        for report in reports:
            converted = _plain(report)
            assert converted == asdict(report)
            # tuples stay tuples, as in asdict
            assert type(converted["checks"]) is tuple and type(converted["notes"]) is tuple

    def test_fractions_built_do_not_grow_with_the_vertex_count(self, monkeypatch):
        # hypercube:5 and hypercube:7 (32 and 128 vertices, kernels of
        # dimension 26 and 120) take the same path, rigidity clause included
        original = Fraction.__new__
        counts = []
        for spec in ("hypercube:5", "hypercube:7"):
            g = generate(parse_family_spec(spec))
            dm = apsp(g)
            built = []

            def counting_new(cls, *args, **kwargs):
                built.append(1)
                return original(cls, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", counting_new)
                result = compute_curvature(g, dm)
                nullspace_sum_check(g, dm)
                reports = [
                    check_bonnet_myers(g, result, dm),
                    check_reverse_bonnet_myers(g, result, dm),
                    check_minimax(g, result, seed=0, dm=dm),
                ]
                build_analysis_report(g, f"family:{spec}", dm, result, None, reports, 0)
            assert "diam*K == 2 implies constant curvature" in [c.label for c in reports[0].checks]
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("spec", ["hypercube:5", "knight_board:7,7", "erdos_renyi:9,0.5,3"])
    def test_equal_values_share_one_object(self, spec):
        g = generate(parse_family_spec(spec))
        result = compute_curvature(g)
        assert len({id(x) for x in result.w}) == len(set(result.w))
        assert result.K == min(result.w) and any(result.K is x for x in result.w)
        nums, den = result.nums, result.den
        assert [Fraction(v, den) for v in nums] == list(result.w)
        sums = nullspace_sum_check(g).entry_sums
        assert len({id(s) for s in sums}) == len(set(sums))


class TestExportDot:
    def test_path5_endpoint_colors(self, capsys, tmp_path):
        out_path = tmp_path / "p5.dot"
        code, _, _ = run_cli(capsys, "export-dot", "--family", "path:5", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("graph curvature {")
        # endpoints carry curvature 5/4 -> saturated red; interior is exactly 0 -> white
        assert text.count('fillcolor="#ff0000"') == 2
        assert text.count('fillcolor="#ffffff"') == 3
        assert 'label="0\\n5/4"' in text
        assert text.count(" -- ") == 4

    def test_cycle8_uniform_red(self, capsys, tmp_path):
        out_path = tmp_path / "c8.dot"
        run_cli(capsys, "export-dot", "--family", "cycle:8", "--out", str(out_path))
        text = out_path.read_text()
        assert text.count('fillcolor="#ff0000"') == 8

    def test_negative_entries_get_blue(self, capsys, tmp_path):
        out_path = tmp_path / "knight.dot"
        code, _, _ = run_cli(
            capsys, "export-dot", "--family", "knight:7,7", "--out", str(out_path)
        )
        assert code == 0
        blues = [
            line for line in out_path.read_text().splitlines()
            if 'fillcolor="#' in line and line.split('fillcolor="')[1][5:7] == "ff"
            and not line.split('fillcolor="')[1][1:3] == "ff"
        ]
        assert blues  # at least one vertex rendered on the blue side

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        run_cli(capsys, "export-dot", "--family", "johnson:5,2", "--out", str(a))
        run_cli(capsys, "export-dot", "--family", "johnson:5,2", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_labels_are_escaped(self):
        # a quote must not end the DOT string, and a trailing backslash must
        # not escape the line break that follows the label
        g = Graph(2, {(0, 1)}, labels=('a"b', "c\\"))
        lines = render_dot(g, compute_curvature(g)).splitlines()
        assert lines[2].startswith('  0 [label="a\\"b\\n2", ')
        assert lines[3].startswith('  1 [label="c\\\\\\n2", ')


class TestPackaging:
    def test_package_exports_each_module_export_once(self):
        modules = (graphs_module, linalg_module, curvature_module, theorems_module)
        expected = ["__version__", *(name for m in modules for name in m.__all__)]
        assert eqcurv.__all__ == expected
        assert len(set(expected)) == len(expected)
        assert eqcurv.__version__
        for m in modules:
            assert all(getattr(eqcurv, name) is getattr(m, name) for name in m.__all__)

    def test_invariance_report_is_gone(self):
        for name in ("total_curvature_invariance_check", "InvarianceReport"):
            assert not hasattr(eqcurv, name) and not hasattr(curvature_module, name)

    def test_pyproject_matches_package(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        module, _, attr = project["scripts"]["eqcurv"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main
        assert project["version"] == eqcurv.__version__

    def test_python_m_eqcurv_runs_the_cli(self):
        src = Path(eqcurv.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "eqcurv", "compute", "--family", "cycle:6"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["curvature"]["k"]["exact"] == "2/3"

    def test_closed_pipe_exits_141_without_a_message(self):
        # the child reads its edge list from stdin and writes only after EOF,
        # so the read end of its stdout is closed before it writes a byte
        src = Path(eqcurv.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "eqcurv", "verify", "--edge-list", "/dev/stdin",
             "--theorems", "all"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, stderr = proc.communicate(b"0 1\n1 2\n2 3\n3 0\n", timeout=120)
        assert stderr == b""
        assert proc.returncode == 141

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        namespace: dict = {}
        exec(block, namespace)
        assert namespace["result"].status is CurvatureStatus.EXACT_CANONICAL
        assert namespace["result"].K == Fraction(2, 3)
        assert namespace["report"].passed

    def test_readme_library_example_computes_distances_once(self, monkeypatch):
        apsp = graphs_module.apsp
        calls = []
        monkeypatch.setattr(graphs_module, "apsp", lambda g: calls.append(g) or apsp(g))
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        exec(block, {})
        assert len(calls) == 1


def test_console_script_resolves_to_main_and_prints_help(capsys):
    # what `pip install` would wire up as the `eqcurv` command; tomllib is 3.11+
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"eqcurv": "eqcurv.cli:main"}
    module, _, attr = scripts["eqcurv"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main
    with pytest.raises(SystemExit) as exit_info:
        entry(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eqcurv")
