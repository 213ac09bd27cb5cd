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

from eqcurv.graphs import FamilySpec  # noqa: E402

ITEMS = [
    ("corpus", workloads.Item(FamilySpec("erdos_renyi", (9, 0.5, 11)))),
    ("canonical_lp", workloads.Item(FamilySpec("cycle", (16,)), 1, 5)),
    ("exact_large", workloads.Item(FamilySpec("erdos_renyi", (12, 0.3, 1)))),
    ("families", workloads.Item(FamilySpec("hypercube", (4,)), 0, 3)),
    ("families", workloads.Item(FamilySpec("complete_multipartite", (1, 1, 1, 4)), 0, 3)),
]


@pytest.mark.parametrize(
    "workload, item", ITEMS, ids=[f"{w}-{item.spec}" for w, item in ITEMS]
)
def test_run_graph_passes_its_oracle_with_one_apsp_and_one_solve(workload, item):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.open_graph(0)
        out = workloads.run_graph(workload, item)
        tracer.close_graph()
    finally:
        tracer.uninstall()
    assert workloads.check(workload, item, out) is None
    assert tracer.absent == set()
    spans = Counter(rec[0] for rec in tracer.spans)
    assert (spans["graphs.apsp"], spans["linalg.solve_exact"]) == (1, 1)
