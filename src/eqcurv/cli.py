"""Command-line front end: compute curvature, verify the theorem suite, sweep
random corpora, and export curvature-colored DOT files.

All reports are JSON with ``schema_version`` "2". Rational values are carried
as exact "p/q" strings next to floating approximations. Every random graph of
a corpus flows from its --seed flag, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Sequence

from . import __version__
from .curvature import CurvatureResult, CurvatureStatus, compute_curvature
from .graphs import (
    FAMILY_NAMES,
    DistanceMatrix,
    FamilySpec,
    Graph,
    generate,
    parse_edge_list,
    parse_family_spec,
)
from .theorems import (
    SpectralInfo,
    TheoremReport,
    check_bonnet_myers,
    check_lichnerowicz,
    check_minimax,
    check_reverse_bonnet_myers,
    check_theorem5,
    perron_alignment,
    spectral_criterion,
    spectral_gap,
)

SCHEMA_VERSION = "2"


def _frac_payload(x: Fraction) -> dict:
    return {"exact": str(x), "float": float(x)}


def graph_payload(g: Graph, source: str, dm: DistanceMatrix) -> dict:
    return {
        "source": source,
        "n": g.n,
        "edge_count": g.edge_count,
        "diameter": dm.diameter(),
        "average_distance": _frac_payload(dm.average_distance()),
    }


def curvature_payload(result: CurvatureResult) -> dict:
    """The report's ``curvature`` object.

    Each distinct value of ``w`` is formatted once, and the entries of ``w``
    that share a value share its ``{"exact", "float"}`` dict, as they share
    one Fraction in ``result.w``.
    """
    formatted = {v: _frac_payload(x) for v, x in dict(zip(result.nums, result.w)).items()}
    return {
        "status": result.status.value,
        "w": [formatted[v] for v in result.nums],
        "k": {**_frac_payload(result.K), "pseudo": not result.is_exact},
        "total": _frac_payload(result.total),
        "residual_range": [_frac_payload(x) for x in result.residual_range],
        "nullspace_dimension": result.nullspace_dimension,
    }


def spectral_payload(info: SpectralInfo) -> dict:
    return {
        "lambda1": info.lambda1,
        "c_g": info.c_G,
        "laplacian_spectrum": list(info.laplacian_spectrum),
        "distance_spectrum": list(info.distance_spectrum),
        "perron_vector": list(info.perron_vector),
    }


def build_analysis_report(
    g: Graph,
    source: str,
    dm: DistanceMatrix | None,
    result: CurvatureResult,
    info: SpectralInfo | None,
    theorems: Sequence[TheoremReport] = (),
    seed: int | None = None,
) -> dict:
    """The JSON report of ``compute`` and ``verify``; ``dm=None`` reads ``g.distance_matrix``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": seed,
        "graph": graph_payload(g, source, g.distance_matrix if dm is None else dm),
        "curvature": curvature_payload(result),
        "spectral": spectral_payload(info) if info is not None else None,
        "theorems": [_plain(r) for r in theorems],
    }


# the types of a report's leaves, all immutable
_LEAF_TYPES = frozenset((str, float, int, bool, type(None)))


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of a dataclass, None for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _plain(value):
    """``value`` as ``dataclasses.asdict`` gives it, without its deep copy.

    Each dataclass instance becomes a dict of its fields and each tuple or
    list a new one of the same type, walked in turn. Every other value is a
    leaf and is shared rather than copied: a report's leaves are immutable.
    """
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    if isinstance(value, (tuple, list)):
        return cls(map(_plain, value))
    names = _field_names(cls)
    if names is None:
        return value
    return {name: _plain(getattr(value, name)) for name in names}


def _theorem5(g: Graph, result: CurvatureResult, info: SpectralInfo) -> list[TheoremReport]:
    """Theorem 5 with all-ones weights, then with ``w`` itself when ``K > 0``."""
    weightings = [([1] * g.n, "all-ones")]
    # the curvature vector itself qualifies whenever it is positive
    # (K is its smallest entry for every status), pseudo solutions included;
    # both bounds are invariant under scaling w, so its numerators stand in for it
    if result.K > 0:
        variant = "curvature solution" if result.is_exact else "pseudo solution"
        weightings.append((result.nums, variant))
    reports = []
    for weights, label in weightings:
        report = check_theorem5(g, weights, info)
        reports.append(replace(report, notes=report.notes + (f"weights: {label}",)))
    return reports


# Each theorem name with the aliases that --theorems accepts for it and its
# runner, ``runner(g, result, info) -> reports``. A runner names its checker
# inside its body, so the checker is looked up in this module when it runs
# and a rebound ``cli.check_*`` is the one called.
_THEOREMS = {
    "bonnet_myers": (("bm",), lambda g, r, i: [check_bonnet_myers(g, r)]),
    "reverse_bonnet_myers": (
        ("reverse_bm", "rbm"), lambda g, r, i: [check_reverse_bonnet_myers(g, r)]
    ),
    "lichnerowicz": (("lich",), lambda g, r, i: [check_lichnerowicz(g, r, i)]),
    "minimax": ((), lambda g, r, i: [check_minimax(g, r)]),
    "theorem5": ((), _theorem5),
    "spectral_criterion": (
        ("criterion", "prop4"), lambda g, r, i: [spectral_criterion(i, r.status)]
    ),
    "perron_alignment": (("perron",), lambda g, r, i: [perron_alignment(i)]),
}

THEOREM_NAMES = tuple(_THEOREMS)

_THEOREM_ALIASES = {alias: name for name, (aliases, _) in _THEOREMS.items() for alias in aliases}


def run_verifiers(
    g: Graph,
    result: CurvatureResult,
    info: SpectralInfo,
    names: Sequence[str],
) -> list[TheoremReport]:
    reports: list[TheoremReport] = []
    for name in names:
        if name not in _THEOREMS:
            raise ValueError(f"unknown theorem {name!r}; known: {', '.join(THEOREM_NAMES)}")
        reports += _THEOREMS[name][1](g, result, info)
    return reports


def _parse_theorem_list(text: str) -> list[str]:
    if text.strip().lower() == "all":
        return list(THEOREM_NAMES)
    names = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        name = _THEOREM_ALIASES.get(token, token)
        if name not in THEOREM_NAMES:
            raise ValueError(
                f"unknown theorem {token!r}; known: {', '.join(THEOREM_NAMES)} (or 'all')"
            )
        names.append(name)
    if not names:
        raise ValueError("empty theorem list")
    return names


def _load_graph(args) -> tuple[Graph, str]:
    if args.family:
        spec = parse_family_spec(args.family)
        return generate(spec), f"family:{spec}"
    with open(args.edge_list, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_edge_list(text), f"edge-list:{args.edge_list}"


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _diverging_color(t: float) -> str:
    """Red for positive, blue for negative, white at zero; t in [-1, 1]."""
    t = max(-1.0, min(1.0, t))
    if t >= 0:
        other = round(255 * (1.0 - t))
        r, g, b = 255, other, other
    else:
        other = round(255 * (1.0 + t))
        r, g, b = other, other, 255
    return f"#{r:02x}{g:02x}{b:02x}"


def render_dot(g: Graph, result: CurvatureResult) -> str:
    """DOT text with vertices filled on a diverging scale anchored at zero."""
    values = [float(x) for x in result.w]
    scale = max((abs(v) for v in values), default=0.0) or 1.0
    lines = ["graph curvature {", "  node [shape=circle, style=filled];"]
    for i in range(g.n):
        color = _diverging_color(values[i] / scale)
        name = g.labels[i].replace("\\", "\\\\").replace('"', '\\"') if g.labels else str(i)
        lines.append(
            f'  {i} [label="{name}\\n{result.w[i]}", tooltip="w[{i}] = {result.w[i]}", '
            f'fillcolor="{color}"];'
        )
    for u, v in g.pairs.tolist():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------

def analyze_graph(
    g: Graph, seed: int | None = None, names: Sequence[str] = THEOREM_NAMES
) -> tuple[CurvatureResult, SpectralInfo, list[TheoremReport]]:
    """Curvature, spectral data and the named verifiers (all by default) of one connected graph.

    ``seed`` is accepted and ignored: every verifier is deterministic.
    """
    result = compute_curvature(g)
    info = spectral_gap(g)
    return result, info, run_verifiers(g, result, info, names)


def run_corpus(
    count: int,
    n_lo: int,
    n_hi: int,
    p: float | None = None,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Seeded connected random-graph sweep; returns (per-graph records, summary)."""
    if count < 1 or n_lo < 2 or n_hi < n_lo:
        raise ValueError("corpus needs count >= 1 and 2 <= n_lo <= n_hi")
    rng = random.Random(seed)
    records: list[dict] = []
    for index in range(count):
        n = rng.randint(n_lo, n_hi)
        p_i = p if p is not None else rng.uniform(0.25, 0.75)
        graph_seed = rng.randrange(2**32)
        g = generate(FamilySpec("erdos_renyi", (n, p_i, graph_seed)))
        result, info, reports = analyze_graph(g)
        crit = next(r for r in reports if r.theorem == "spectral_criterion")
        records.append(
            {
                "index": index,
                "n": n,
                "p": p_i,
                "graph_seed": graph_seed,
                "edge_count": g.edge_count,
                "status": result.status.value,
                "nullspace_dimension": result.nullspace_dimension,
                "k_float": float(result.K),
                "k_exact": str(result.K) if result.is_exact else None,
                "c_g": info.c_G,
                "criterion_applicable": crit.hypothesis_satisfied,
                "criterion_true": crit.hypothesis_satisfied and bool(crit.checks[0].holds),
                "theorem5_ones_pass": next(r for r in reports if r.theorem == "theorem5").passed,
                "failures": [r.theorem for r in reports if r.failed],
            }
        )
    c_g_values = [r["c_g"] for r in records]
    predicted = [r for r in records if r["criterion_true"]]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "seed": seed,
        "count": count,
        "n_range": [n_lo, n_hi],
        "p": p,
        "statuses": {s.value: sum(r["status"] == s.value for r in records) for s in CurvatureStatus},
        "verifier_failures": sum(len(r["failures"]) for r in records),
        "failing_graphs": [r["index"] for r in records if r["failures"]],
        "negative_curvature_graphs": sum(
            r["k_exact"] is not None and Fraction(r["k_exact"]) < 0 for r in records
        ),
        "theorem5_ones_failures": sum(not r["theorem5_ones_pass"] for r in records),
        "c_g": {
            "min": min(c_g_values),
            "fraction_above_0_95": sum(c > 0.95 for c in c_g_values) / len(c_g_values),
        },
        "spectral_criterion": {
            "applicable": sum(r["criterion_applicable"] for r in records),
            "predicted_solvable": len(predicted),
            "unsound_predictions": sum(
                r["status"] == CurvatureStatus.INCONSISTENT.value for r in predicted
            ),
        },
    }
    return records, summary


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    g, source = _load_graph(args)
    result = compute_curvature(g)
    info = spectral_gap(g) if g.n >= 2 else None
    report = build_analysis_report(g, source, None, result, info)
    print(json.dumps(report, indent=2))
    return 2 if result.status is CurvatureStatus.INCONSISTENT else 0


def cmd_verify(args) -> int:
    names = _parse_theorem_list(args.theorems)
    g, source = _load_graph(args)
    result, info, reports = analyze_graph(g, names=names)
    report = build_analysis_report(g, source, None, result, info, reports)
    print(json.dumps(report, indent=2))
    return 2 if any(r.failed for r in reports) else 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like 'a..b' with integer ends, got {text!r}") from None


def cmd_corpus(args) -> int:
    n_lo, n_hi = _parse_range(args.n_range)
    records, summary = run_corpus(args.count, n_lo, n_hi, args.p, args.seed)
    if args.json_lines:
        for record in records:
            print(json.dumps(record))
    print(json.dumps(summary, indent=2))
    return 2 if summary["verifier_failures"] else 0


def cmd_export_dot(args) -> int:
    g, _source = _load_graph(args)
    result = compute_curvature(g)
    text = render_dot(g, result)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def _add_source_arguments(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--family",
        help=f"family spec 'name:arg1,arg2' ({', '.join(FAMILY_NAMES)})",
    )
    group.add_argument("--edge-list", help="path to a 'u v' edge-list file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqcurv",
        description="Equilibrium-measure curvature of finite connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute",
        help="solve D w = n*1 and report curvature (exit 2 when no exact solution exists)",
    )
    _add_source_arguments(compute)
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="run theorem verifiers (exit 2 on any failure)")
    _add_source_arguments(verify)
    verify.add_argument("--theorems", default="all", help="'all' or comma list of theorem names")
    verify.set_defaults(func=cmd_verify)

    corpus = sub.add_parser("corpus", help="verify a seeded random-graph corpus")
    corpus.add_argument("--count", type=int, required=True, help="number of graphs")
    corpus.add_argument("--n-range", required=True, help="vertex-count range 'a..b'")
    corpus.add_argument(
        "--p", type=float, default=None,
        help="edge probability (default: drawn per graph from [0.25, 0.75])",
    )
    corpus.add_argument("--seed", type=int, default=0, help="master seed")
    corpus.add_argument(
        "--json-lines", action="store_true", help="emit one JSON record per graph before the summary"
    )
    corpus.set_defaults(func=cmd_corpus)

    export = sub.add_parser("export-dot", help="write a curvature-colored DOT file")
    _add_source_arguments(export)
    export.add_argument("--out", required=True, help="output DOT path")
    export.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): end quietly with the status a
        # SIGPIPE kill gives, and let the interpreter's last flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
