"""Benchmark of the eqcurv pipeline on four seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One client in one process computes one graph at a time (a closed loop). A run
goes through the number of whole input blocks (see workloads.py) that take
``--seconds`` at the seed commit, cycling through the blocks if there are
fewer. Every run of a given length therefore measures the same graphs, so its
percentiles do not depend on how fast the host happens to be. Times are
reported in reference seconds: each graph's wall time scaled by calibration
samples taken around it (see calibrate.py); the wall-clock figures are in the
record. The first output of every graph goes through the workload's oracle; a
graph that runs again must reproduce it exactly.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced run of the first block with a traced run of it (see tracing.py)
while another pair fits in ``--seconds``, and reports the per-layer metrics
of one block: counts from the first traced block, times as the mean over the
traced blocks.

The last line of standard output is the result as one JSON object. The full
record, with the environment stamp, the output digests and every graph's
latency, is written to ``perfbench/out/``; a traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_workloads():
    """Import the workloads module, with eqcurv from this checkout's ``src/``."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import eqcurv

    if not Path(eqcurv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"eqcurv resolves to {eqcurv.__file__}, outside this checkout")
    import workloads

    return workloads


def measure_setup(workload: str, seed: int) -> float:
    """Median time from starting a fresh process until it has imported eqcurv and built the inputs.

    The child reports the time itself, on the system-wide monotonic clock, so
    neither its exit nor the parent's polling for it is counted.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-started", repr(time.monotonic())]
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(child.stdout))
    return statistics.median(times)


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), None)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu_model": cpu,
        "git_commit": commit,
        "seed": seed,
    }


class Runner:
    """Runs graphs of the workload one at a time, timing each and checking its output.

    A calibration sample (see calibrate.py) is taken before every graph, and
    one more when times are converted, so every graph's time can be converted
    to reference seconds by the samples around it.
    """

    def __init__(self, wl, workload: str, blocks: list[list]) -> None:
        import calibrate

        self.wl, self.workload, self.calibrate = wl, workload, calibrate
        self.items = [item for block in blocks for item in block]
        self.block_size = len(blocks[0])
        self.calibration: list[float] = []
        self.times: list[float] = []
        self.slots: list[int] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.digests: list[tuple[str, str] | None] = [None] * len(self.items)

    def run_one(self, index: int, tracer=None) -> float:
        """Time graph ``index`` (modulo the input list) and return its wall time.

        The first time a graph runs, its output goes through the oracle; after
        that it must match the first output's digest.
        """
        slot = index % len(self.items)
        item = self.items[slot]
        self.calibration.append(self.calibrate.sample(self.workload))
        if tracer is not None:
            tracer.open_graph(slot)
        t0 = perf_counter()
        try:
            out = self.wl.run_graph(self.workload, item)
            reason = None
        except Exception as exc:  # a failing graph is counted, the run goes on
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.close_graph()
        if reason is None:
            try:
                digest = self.wl.fingerprint(out)
                if self.digests[slot] is None:
                    reason = self.wl.check(self.workload, item, out)
                    if reason is None:
                        self.digests[slot] = digest
                elif digest != self.digests[slot]:
                    reason = "output differs from its first run"
            except Exception as exc:  # an output the oracle cannot read is wrong
                reason = f"oracle: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"{item.spec}: {reason}")
        self.times.append(elapsed)
        self.slots.append(slot)
        self.ok.append(reason is None)
        return elapsed

    def reference_times(self, first: int = 0) -> list[float]:
        """Times of graphs ``first..`` in reference seconds.

        Graph k is scaled by the nominal sample time over the median of the
        samples taken before graphs k-1, k, k+1 and k+2.
        """
        cal = self.calibration
        if len(cal) == len(self.times):
            cal = cal + [self.calibrate.sample(self.workload)]
        nominal = self.calibrate.NOMINAL_S[self.workload]
        return [self.times[k] * nominal / statistics.median(cal[max(0, k - 1):k + 3])
                for k in range(first, len(self.times))]

    def block_digests(self) -> dict:
        """Digests of the first block's outputs, which every run computes."""
        first = [d or ("", "") for d in self.digests[:self.block_size]]
        return {
            "digest_exact": hashlib.sha256("".join(d[0] for d in first).encode()).hexdigest(),
            "digest": hashlib.sha256("".join(d[1] for d in first).encode()).hexdigest(),
            "graphs_checked": sum(d is not None for d in self.digests),
        }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_SAMPLES samples beyond it, and its value."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - TAIL_SAMPLES - 1)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Run the whole blocks that take ``seconds`` at the seed commit; end-to-end metrics."""
    blocks = max(1, round(seconds / runner.wl.BLOCK_SECONDS[runner.workload]))
    for index in range(blocks * runner.block_size):
        runner.run_one(index)
    reference = runner.reference_times()
    latencies = [t for t, ok in zip(reference, runner.ok) if ok]
    if not latencies:
        raise RuntimeError("every graph failed")
    percentile, tail_value = tail(latencies)
    metrics = {
        "graphs_per_s": (len(latencies) / sum(reference), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (len(latencies) / len(runner.times), "frac"),
    }
    wall = [t for t, ok in zip(runner.times, runner.ok) if ok]
    details = {
        "tail_percentile": percentile,
        "latency_samples": len(latencies),
        "distinct_graphs": len(set(runner.slots)),
        "wall": {"busy_s": sum(runner.times), "graphs_per_s": len(wall) / sum(runner.times),
                 "latency_p50_ms": 1e3 * statistics.median(wall), "latency_tail_ms": 1e3 * tail(wall)[1]},
        "calibration_ms": [1e3 * min(runner.calibration), 1e3 * statistics.median(runner.calibration),
                           1e3 * max(runner.calibration)],
    }
    return {"metrics": metrics, "details": details}


def run_traced(runner: Runner, seconds: float, seed: int) -> dict:
    """Alternate the first block untraced and traced while another pair fits in ``seconds``."""
    import tracing as tr

    tracer = tr.Tracer()
    size = runner.block_size
    untraced = traced = 0.0
    tables = []
    first_span = 0
    start = perf_counter()
    while not tables or (perf_counter() - start) * (len(tables) + 1) / len(tables) <= seconds:
        for i in range(size):
            runner.run_one(i)
        tracer.install()
        try:
            wall = sum(runner.run_one(i, tracer) for i in range(size))
        finally:
            tracer.uninstall()
        pair = runner.reference_times(len(runner.times) - 2 * size)
        untraced += sum(pair[:size])
        traced += sum(pair[size:])
        # span times scale to reference seconds with the block's overall factor
        scale = sum(pair[size:]) / wall
        table = tr.layer_table(tracer.spans, first_span, size, wall)
        tables.append({k: v * scale if k.endswith("_s") else v for k, v in table.items()})
        first_span = len(tracer.spans)
    layer = dict(tables[0])
    for key in layer:
        if key.endswith(("_s", "_frac")):
            layer[key] = statistics.fmean(t[key] for t in tables)
    layer["trace.overhead_frac"] = traced / untraced - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{runner.workload}_seed{seed}_spans.json"
    spans_path.write_text(json.dumps([rec[:5] for rec in tracer.spans]))
    metrics = {key: (value, unit_of(key)) for key, value in layer.items()}
    details = {"traced_blocks": len(tables), "absent": sorted(tracer.absent),
               "spans": str(spans_path.relative_to(ROOT))}
    return {"metrics": metrics, "details": details}


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "frac"
    if key.endswith("max_bits"):
        return "bits"
    if key.endswith("bytes"):
        return "bytes"
    if key.endswith("calls_per_graph"):
        return "count/graph"
    if key.endswith("residual_max"):
        return "abs"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs only and print the time since the given monotonic clock reading
    parser.add_argument("--setup-started", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    try:
        wl = import_workloads()
    except ImportError as exc:
        print(f"error: cannot import the eqcurv package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    blocks = wl.build_blocks(args.workload, args.seed)
    if args.setup_started is not None:
        print(time.monotonic() - args.setup_started)
        return 0

    runner = Runner(wl, args.workload, blocks)
    if args.trace:
        run = run_traced(runner, args.seconds, args.seed)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        run = run_untraced(runner, args.seconds)
        run["metrics"]["setup_s"] = (setup_s, "s")
    result = {
        "correct": not runner.failures,
        "attempted": len(runner.times),
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, nproc),
        **runner.block_digests(),
        **run["details"],
        "failures": runner.failures[:20],
    }
    latencies = [[str(runner.items[i].spec), 1e3 * t] for i, t in zip(runner.slots, runner.times)]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result, "latencies_ms": latencies}, indent=2))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
