"""Spans at the eqcurv layer boundaries, recorded from outside the package.

For a traced block, each public layer function is rebound to a timing wrapper
at every module attribute through which its callers look it up, and put back
afterwards. A span is ``[name, start, end, parent, graph, payload]``: parent
is the index of the enclosing span (-1 at top level) and graph the index of
the graph in the input list. The payload holds the call's arguments and result
until the graph ends; ``close_graph`` then reduces it to a few counts, so
nothing is computed for the counters while the clock runs.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

CHECKS = (
    "check_bonnet_myers",
    "check_reverse_bonnet_myers",
    "check_lichnerowicz",
    "check_minimax",
    "check_theorem5",
    "spectral_criterion",
    "perron_alignment",
)

# span name -> (module, attribute) pairs through which callers find the function
BOUNDARIES = {
    "graphs.generate": [("eqcurv.graphs", "generate")],
    "graphs.apsp": [(m, "apsp") for m in ("eqcurv.graphs", "eqcurv.cli", "eqcurv.curvature", "eqcurv.theorems")],
    "linalg.solve_exact": [("eqcurv.curvature", "solve_exact")],
    "linalg.lp_max_min": [("eqcurv.curvature", "lp_max_min")],
    "linalg.pseudo_apply": [("eqcurv.curvature", "pseudo_apply")],
    "linalg.symmetric_eigen": [("eqcurv.linalg", "symmetric_eigen"), ("eqcurv.theorems", "symmetric_eigen")],
    "curvature.compute_curvature": [
        (m, "compute_curvature") for m in ("eqcurv.curvature", "eqcurv.cli", "eqcurv.theorems")
    ],
    "curvature.nullspace_sum_check": [("eqcurv.curvature", "nullspace_sum_check")],
    "theorems.spectral_gap": [("eqcurv.theorems", "spectral_gap"), ("eqcurv.cli", "spectral_gap")],
    "theorems.checks": [(m, f) for m in ("eqcurv.theorems", "eqcurv.cli") for f in CHECKS],
    "cli.analyze_graph": [("eqcurv.cli", "analyze_graph")],
    "cli.report": [("workloads", "serialise_report")],
}


def _max_bits(outcome) -> int:
    vectors = list(outcome.nullspace)
    if outcome.solution is not None:
        vectors.append(outcome.solution)
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for vec in vectors for x in vec),
        default=0,
    )


# span name -> counts taken from (args, result) once the graph is done
COUNTERS = {
    "graphs.apsp": lambda args, r: {"entries": r.n * r.n},
    "linalg.symmetric_eigen": lambda args, r: {"order": r.eigenvalues.size, "residual": r.offdiagonal_residual},
    "linalg.lp_max_min": lambda args, r: {"nullspace_dim": len(args[1])},
    "linalg.solve_exact": lambda args, r: {"max_bits": _max_bits(r), "nullspace_dim": r.nullspace_dimension},
    "curvature.compute_curvature": lambda args, r: {"status": r.status.value},
    "theorems.checks": lambda args, r: {"failed": int(r.failed)},
    "cli.report": lambda args, r: {"bytes": len(r)},
}


class Tracer:
    """Collects spans while installed; one instance serves a whole run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.graph = -1
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._graph_start = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.graph, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[5] = (args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every boundary that exists; a missing one is recorded as absent."""
        for name, sites in BOUNDARIES.items():
            found = False
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
                found = True
            if not found:
                self.absent.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def open_graph(self, index: int) -> None:
        self.graph = index
        self._graph_start = len(self.spans)

    def close_graph(self) -> None:
        """Reduce the payloads of the current graph's spans to counts."""
        for rec in self.spans[self._graph_start:]:
            counter = COUNTERS.get(rec[0])
            payload = rec[5]
            rec[5] = None
            if counter is None or payload is None:
                continue
            try:
                rec[5] = counter(*payload)
            except (AttributeError, TypeError, IndexError, ValueError):
                self.absent.add(f"{rec[0]} counters")


def layer_table(spans: list[list], first: int, graphs: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced block whose spans start at index ``first``.

    The block has ``graphs`` graphs and took ``wall`` seconds. Span parents
    are indices into the whole ``spans`` list.
    """
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    lp_children: set[int] = set()
    block = range(first, len(spans))
    for index in block:
        name, start, end, parent, _graph, _payload = spans[index]
        if parent >= 0:
            child_time[parent] += end - start
            if name == "linalg.lp_max_min":
                lp_children.add(parent)
    for index in block:
        name, start, end, _parent, _graph, payload = spans[index]
        busy[name] += end - start
        own[name] += end - start - child_time[index]
        calls[name] += 1
        if not payload:
            continue
        if name == "curvature.compute_curvature":
            counts["status." + payload["status"]] += 1
            if payload["status"] == "exact_canonical" and index not in lp_children:
                counts["lp_skipped"] += 1
        for key, value in payload.items():
            if key == "status":
                continue
            slot = f"{name}.{key}"
            if key in ("max_bits", "nullspace_dim", "residual"):
                counts[slot] = max(counts[slot], value)
            else:
                counts[slot] += value
    covered = sum(own.values())
    return {
        "graphs.generate.busy_s": busy["graphs.generate"],
        "graphs.generate.calls": calls["graphs.generate"],
        "graphs.apsp.busy_s": busy["graphs.apsp"],
        "graphs.apsp.calls": calls["graphs.apsp"],
        "graphs.apsp.entries": counts["graphs.apsp.entries"],
        "linalg.symmetric_eigen.busy_s": busy["linalg.symmetric_eigen"],
        "linalg.symmetric_eigen.calls": calls["linalg.symmetric_eigen"],
        "linalg.symmetric_eigen.order_sum": counts["linalg.symmetric_eigen.order"],
        "linalg.symmetric_eigen.residual_max": counts["linalg.symmetric_eigen.residual"],
        "linalg.lp_max_min.busy_s": busy["linalg.lp_max_min"],
        "linalg.lp_max_min.calls": calls["linalg.lp_max_min"],
        "linalg.lp_max_min.nullspace_dim": counts["linalg.lp_max_min.nullspace_dim"],
        "linalg.solve_exact.busy_s": busy["linalg.solve_exact"],
        "linalg.solve_exact.calls": calls["linalg.solve_exact"],
        "linalg.solve_exact.calls_per_graph": calls["linalg.solve_exact"] / graphs,
        "linalg.solve_exact.max_bits": counts["linalg.solve_exact.max_bits"],
        "linalg.solve_exact.nullspace_dim": counts["linalg.solve_exact.nullspace_dim"],
        "linalg.pseudo_apply.self_s": own["linalg.pseudo_apply"],
        "linalg.pseudo_apply.calls": calls["linalg.pseudo_apply"],
        "curvature.compute_curvature.busy_s": busy["curvature.compute_curvature"],
        "curvature.compute_curvature.self_s": own["curvature.compute_curvature"],
        "curvature.compute_curvature.calls": calls["curvature.compute_curvature"],
        "curvature.status.exact_unique": counts["status.exact_unique"],
        "curvature.status.exact_canonical": counts["status.exact_canonical"],
        "curvature.status.inconsistent": counts["status.inconsistent"],
        "curvature.lp_skipped": counts["lp_skipped"],
        "curvature.nullspace_sum_check.self_s": own["curvature.nullspace_sum_check"],
        "theorems.spectral_gap.busy_s": busy["theorems.spectral_gap"],
        "theorems.spectral_gap.self_s": own["theorems.spectral_gap"],
        "theorems.spectral_gap.calls": calls["theorems.spectral_gap"],
        "theorems.checks.busy_s": busy["theorems.checks"],
        "theorems.checks.count": calls["theorems.checks"],
        "theorems.checks.failed": counts["theorems.checks.failed"],
        "cli.analyze_graph.self_s": own["cli.analyze_graph"],
        "cli.report.busy_s": busy["cli.report"],
        "cli.report.bytes": counts["cli.report.bytes"],
        "trace.coverage_frac": covered / wall if wall > 0 else 0.0,
        "trace.wall_s": wall,
        "trace.graphs": graphs,
    }
