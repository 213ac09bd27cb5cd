"""Mutants of the exactness bounds in ``src/eqcurv``, and a runner that checks the tests kill them.

Each bound below makes an integer computation exact in int64, float64 or
float32, or keeps an input small enough for that. A mutant loosens one bound,
most by one bit, so that the computation can overflow or round where the
bound said it could not. Every row names the function that holds the bound,
the exact source snippet, its replacement and the tests that should fail
under it; ``tests/test_source_rules.py`` checks in tier-1 that every snippet
occurs exactly once in ``src/eqcurv``, inside its function.

Run from the repository root, with the names of functions to select
mutants, or none for all of them::

    python tests/mutants.py [linalg._combine_digits ...]

Each mutant is applied to a copy of ``src``, ``tests`` and ``perfbench`` in a
temporary directory, and its tests run there with ``pytest -x`` under
``TIME_LIMIT`` seconds, with Hypothesis seeded (``--hypothesis-seed=0``) so
that no verdict hangs on a random draw. A failing run kills the mutant; a
run past the limit counts as killed too but is reported as a hang. The
survivors are printed at the end, and the exit status is 1 when there is any.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT = 300

# the solver's own tests, fastest and most direct first, so that -x stops early
SOLVE = ("tests/test_solve_float_bounds.py", "tests/test_certificate_oracle.py", "tests/test_integer_rule.py",
         "tests/test_solve_float_oracle.py", "tests/test_solve_float_singular.py",
         "tests/test_solve_exact_oracle.py", "tests/test_solve_exact_bareiss.py")
LP = ("tests/test_integer_rule.py", "tests/test_lp_max_min_oracle.py", "tests/test_linalg.py")
QUOTIENT = ("tests/test_quotient_max_min.py::TestCellNumerators", "tests/test_quotient_max_min.py")
CERTIFICATE = ("tests/test_quotient_max_min.py::TestCertificate", "tests/test_quotient_max_min.py")


class Mutant(NamedTuple):
    function: str  # "module.qualname" under src/eqcurv
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("linalg.integer_matmul", "if max(a_max * x_max * k, a_max, x_max) < FLOAT64_LIMIT:",
           "if max(a_max * x_max * k, a_max, x_max) < 2 * FLOAT64_LIMIT:", SOLVE),
    Mutant("linalg.integer_matmul", "if a_max * k >= FLOAT64_LIMIT // 2:",
           "if a_max * k >= FLOAT64_LIMIT:", SOLVE),
    Mutant("linalg.integer_matmul", "s = 53 - (a_max * k).bit_length()",
           "s = 54 - (a_max * k).bit_length()", SOLVE),
    Mutant("linalg._certificate", "if scale * int(ax.max()) >= FLOAT64_LIMIT:",
           "if scale * int(ax.max()) >= 2 * FLOAT64_LIMIT:", SOLVE),
    Mutant("linalg._certificate", "if 2 * delta >= 1 << s:", "if delta >= 1 << s:", SOLVE),
    Mutant("linalg._lift_float", "s = min(52, int(np.floor(52 - np.log2(scale) - np.log2(inverse_max))))",
           "s = min(53, int(np.floor(53 - np.log2(scale) - np.log2(inverse_max))))", SOLVE),
    Mutant("linalg._lift_float", "k = min(s - 2 - delta.bit_length(),", "k = min(s - 1 - delta.bit_length(),", SOLVE),
    Mutant("linalg._lift_float", "s + 51 - (4 * x_norm * scale * scale).bit_length())",
           "s + 52 - (4 * x_norm * scale * scale).bit_length())", SOLVE),
    Mutant("linalg._combine_digits", "top = max(map(_absmax, digits))",
           "top = max(map(_absmax, digits)) >> 1", SOLVE),
    Mutant("linalg._combine_digits", "g = (62 - top.bit_length()) // k + 1",
           "g = (62 - top.bit_length()) // k + 2", SOLVE),
    Mutant("linalg._reconstruct_dyadic", "den * _absmax(acc) + one < INT64_LIMIT:",
           "den * _absmax(acc) + one < 2 * INT64_LIMIT:", SOLVE),
    Mutant("linalg._reconstruct_dyadic", "den * _absmax(acc) + half >= INT64_LIMIT:",
           "den * _absmax(acc) + half >= 2 * INT64_LIMIT:", SOLVE),
    Mutant("linalg._columns_hold", "_int_dtype(max(abs(den) * _absmax(rhs), abs(den)))",
           "_int_dtype(max(abs(den) * _absmax(rhs) // 2, abs(den)))", SOLVE),
    Mutant("linalg._fitted", "return a.astype(_int_dtype(_absmax(a)), copy=False)",
           "return a.astype(_int_dtype(_absmax(a) // 2), copy=False)", SOLVE),
    Mutant("linalg.solve_exact", "dtype = _int_dtype(max(_absmax(m), _absmax(b)))",
           "dtype = _int_dtype(max(_absmax(m), _absmax(b)) // 2)", SOLVE),
    Mutant("linalg.SolveOutcome.kernel_rows", "dtype=_int_dtype(max(_absmax(kernel), self.den))",
           "dtype=_int_dtype(max(_absmax(kernel), self.den) // 2)", SOLVE),
    Mutant("linalg.SolveOutcome.kernel_sum_numerators", "dtype=_int_dtype(self.rank * _absmax(kernel))",
           "dtype=_int_dtype(self.rank * _absmax(kernel) // 2)", SOLVE),
    Mutant("linalg._pivots_in_int64", "return 2 * top**2 < INT64_LIMIT", "return top**2 < INT64_LIMIT", LP),
    Mutant("linalg._simplex_max", "dtype=np.int64 if _pivots_in_int64(top) else object",
           "dtype=np.int64 if _pivots_in_int64(top * 7 // 10) else object", LP),
    Mutant("linalg.lp_max_min", "b = w_free.astype(_int_dtype(2 * w_max)) - t0",
           "b = w_free.astype(_int_dtype(w_max)) - t0", LP),
    Mutant("linalg.lp_max_min", "dtype = _int_dtype(len(free) * top * (d * w_max + k * top * dirs_max))",
           "dtype = _int_dtype(len(free) * top * (d * w_max + k * top * dirs_max) // 2)", LP),
    # not a bound but the precondition that bounds every level: the multiplicities dropped from it
    Mutant("linalg.lp_max_min", "if integer_matmul(dirs, weights).any():",
           "if integer_matmul(dirs, np.ones(n, dtype=np.int64)).any():", LP),
    # the cell averages' numerators scaled by L / s_c, the bound without its factor L
    Mutant("curvature._cell_numerators", "dtype = _int_dtype(big * max(_absmax(grouped), 1))",
           "dtype = _int_dtype(max(_absmax(grouped), 1))", QUOTIENT),
    # not bounds but the route's certificate: D P == P B dropped, so a partition that is not
    # equitable gets the LP on its cells, and one cell taken without its row sums agreeing
    Mutant("curvature._max_min_on_cells", "(dp == dp[order[starts]][cells]).all() and np.array_equal(d, d.T)",
           "np.array_equal(d, d.T)", CERTIFICATE),
    Mutant("curvature._max_min_on_cells", "if not ((dp == dp[order[starts]][cells]).all()",
           "if len(sizes) > 1 and not ((dp == dp[order[starts]][cells]).all()", CERTIFICATE),
    Mutant("graphs.apsp", "if n > MAX_FAMILY_VERTICES:", "if n > MAX_FAMILY_VERTICES + 1:",
           ("tests/test_apsp_oracle.py",)),
    # float16 holds integers only up to 2^11: D @ A promotes to float32, but A's column sums, the
    # degrees, stay in float16 and saturate at 2048
    Mutant("graphs.apsp", "a = adj.astype(np.float32)", "a = adj.astype(np.float16)",
           ("tests/test_apsp_oracle.py::test_a_degree_past_half_precision_on_a_star_with_a_tail",
            "tests/test_apsp_oracle.py")),
    Mutant("theorems.check_theorem5", "dtype=np.int64 if max(nums) < INT64_LIMIT else object",
           "dtype=np.int64 if max(nums) < 2 * INT64_LIMIT else object", ("tests/test_theorems.py",)),
    # not a bound but the product law's two projective edge cases: inf + inf read as the undefined
    # (0, 0) passes every product, and an inconsistent factor read as rho = inf in place of 0
    Mutant("theorems.check_product_curvature", "if (a, b) == (0, 0):", "if False:",
           ("tests/test_theorems.py::TestProductCurvature",)),
    Mutant("theorems.check_product_curvature", "(0, 1) if point is None", "(1, 0) if point is None",
           ("tests/test_theorems.py::TestProductCurvature",)),
]


def run(mutant: Mutant) -> str:
    """``killed``, ``hang``, ``survived`` or ``error <exit status>`` for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "eqcurv" / f"{mutant.function.split('.')[0]}.py"
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "error: the snippet does not occur exactly once"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                   *mutant.tests]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            return "hang"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error {done.returncode}")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.function in names]
    outcomes = []
    for mutant in chosen:
        started = time.monotonic()
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:9} {time.monotonic() - started:6.1f} s  {mutant.function}: "
              f"{mutant.snippet!r} -> {mutant.replacement!r}", flush=True)
    left = [(m, o) for m, o in zip(chosen, outcomes) if o not in ("killed", "hang")]
    print(f"\n{len(chosen) - len(left)} of {len(chosen)} mutants killed; survivors and errors:")
    for mutant, outcome in left:
        print(f"  {outcome}: {mutant.function}: {mutant.replacement!r}")
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
