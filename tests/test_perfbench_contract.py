"""The benchmark harness in ``perfbench/`` still drives the package.

``perfbench/workloads.py`` calls the package through the signatures it was
written against, and ``perfbench/tracing.py`` rebinds the layer functions at
the module attributes it names. Both are imported as they are, and one small
graph per workload runs through ``run_graph`` with the tracer installed, so a
change that breaks the benchmark fails here instead of only as failed graphs
in a benchmark run.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

# the canonical_lp oracle solves its reference LP with scipy
pytest.importorskip("scipy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

from eqcurv import linalg  # noqa: E402
from eqcurv.curvature import CurvatureStatus  # noqa: E402
from eqcurv.graphs import FamilySpec  # noqa: E402

# each item with its exact-output digest, ``workloads.fingerprint(out)[0]``, so a
# change that alters a benchmark output fails here without a benchmark run
ITEMS = [
    ("corpus", workloads.Item(FamilySpec("erdos_renyi", (9, 0.5, 11))),
     "5eef842c6aa67265b7c48ae1b27bd0b4977c1ce317a54da6b3e76948af8914a5"),
    ("canonical_lp", workloads.Item(FamilySpec("cycle", (16,)), 1, 5),
     "b86d141df9e834bf8abeb10f7b2f2907c5939beb26df72c6dd86e65da1404cc7"),
    # the largest graph of the workload, n = 54
    ("canonical_lp", workloads.Item(FamilySpec("knight_board", (6, 9)), 0, 7),
     "ba2d9c8f8af428da61b717f95e6be26aa172a2c3b97d73c8ecc67c7d5aaf1920"),
    ("exact_large", workloads.Item(FamilySpec("erdos_renyi", (12, 0.3, 1))),
     "5a5355146029f09b57daac4efcf5adf6bf2518b6eba143f9583ce52f03a1615c"),
    # n = 100 takes the float route; the fraction-free fallback gives the
    # same digest
    ("exact_large", workloads.Item(FamilySpec("erdos_renyi", (100, 0.1, 1))),
     "143d72f44cb4cad2c972a72a0c9544f8786f371ee867498c19db860540fd52fd"),
    ("families", workloads.Item(FamilySpec("hypercube", (4,)), 0, 3),
     "ed2b950f84583b3a02deb4571c4f1d8835e12161f1da9dd91ccc579ab4b410c2"),
    ("families", workloads.Item(FamilySpec("complete_multipartite", (1, 1, 1, 4)), 0, 3),
     "a88a16d7f93068802cb6af0af9640d2b81bb5e57ddec19dcae3bc378bbc9f583"),
    ("families", workloads.Item(FamilySpec("knight_board", (7, 7)), 0, 3),
     "12a50f40432e60ca58fe5c8b05bbabe804a525bb851c41c5c82ba868ec8e7a36"),
    # built from an edge array, then relabelled through a frozenset of tuples
    ("families", workloads.Item(FamilySpec("cocktail_party", (6,)), 0, 3),
     "a8dae1fc35c30b749572a48eb93f4a63bb5840880104ca589239133855be61c6"),
    # rank 10: |b| = 210 is past 4 r |M_JJ| = 160, so the float route lifts
    # the basis block on a scale widened to |rhs| / 4
    ("families", workloads.Item(FamilySpec("johnson", (10, 4)), 0, 3),
     "77f6b4badd5ce5f53c2fa8e69e4039d10c964192b0577437f8ada696a9562945"),
]

# each families item with the digest of all its outputs, floats and the
# report's bytes included, ``workloads.fingerprint(out)[1]``: the report is
# built and serialised as the benchmark does it, so any change to its bytes
# fails here
DIGEST_FULL = {
    "hypercube:4": "a1408d3f445d8440ff20057cd278647688eab69eb2d2138310101c500f291676",
    "complete_multipartite:1,1,1,4": "18f9dbd2e8da7aa166551762daa01c80cfc72ff9c49130c6acc3d6e81f451cea",
    "knight_board:7,7": "eb968b3f088c1a852346d9ba6179c089a4c8cd2d2a9e93121c00d64984512dd7",
    "cocktail_party:6": "34cf8a2d186cdf34840afc94f9fb80640a531e4390a7e0f68c5a61335a2ea973",
    "johnson:10,4": "c9f8fcd0559b41ecbafd04fbdf56bda3775351959f265d42edb3c7637d31028b",
}


@pytest.mark.parametrize(
    "workload, item, digest_exact", ITEMS, ids=[f"{w}-{item.spec}" for w, item, _ in ITEMS]
)
def test_run_graph_passes_its_oracle_with_one_apsp_and_one_solve(monkeypatch, workload, item, digest_exact):
    # every distance system, consistent or not, and the bordered system of
    # the pseudo-inverse take the float route: the fallback never runs
    fallback = []
    solve_fraction_free = linalg._solve_fraction_free
    monkeypatch.setattr(linalg, "_solve_fraction_free",
                        lambda m, b: fallback.append(len(m)) or solve_fraction_free(m, b))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.open_graph(0)
        out = workloads.run_graph(workload, item)
        tracer.close_graph()
    finally:
        tracer.uninstall()
    assert workloads.check(workload, item, out) is None
    assert fallback == []
    assert tracer.absent == set()
    spans = Counter(rec[0] for rec in tracer.spans)
    assert (spans["graphs.apsp"], spans["linalg.solve_exact"]) == (1, 1)
    # the tracer sees every checker call: one span per theorem report
    assert spans["theorems.checks"] == len(out.get("reports", ()))
    # the exact pseudo-inverse runs once for an inconsistent graph and never
    # otherwise; its bordered solve is not a second distance solve
    inconsistent = out["result"].status is CurvatureStatus.INCONSISTENT
    assert spans["linalg.pseudo_apply"] == int(inconsistent)
    assert workloads.fingerprint(out)[0] == digest_exact
    if workload == "families":
        assert workloads.fingerprint(out)[1] == DIGEST_FULL[str(item.spec)]
