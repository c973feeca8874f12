"""Benchmark of the three blaschkelab pipelines.

    python3 benchmarks/run.py --workload path-certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there
and nowhere else.  One process runs one operation at a time (closed loop, one
client, no extra threads; OMP/OPENBLAS/MKL threads are pinned to 1 and the
hash seed to 0).  The deck for the seed is built before timing starts, then
whole passes over it run until ``--seconds`` have gone by, so every pass
does the same work and a faster program simply runs more passes.  Every answer is checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the provenance and a
report: ``fail_frac``, raw wall-clock ops per second, ``op_s_p90`` when the
run holds at least 100 ops, and the first gate failures.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: import, plus the median of three deck builds with one
  untimed warm-up op each;
- ``ops_per_s``: ops that passed their gates, over the sum of each op's
  median latency across the passes.  Every op runs at least
  ``Workload.passes`` times: on a shared 2-core host the speed of the same
  op drifts by up to 30% in phases of seconds to minutes (CPU time equal to
  wall time).  Each op's fastest sample then depends on whether a short fast
  phase fell inside the run, while its median follows the host's typical
  state: over ten seeds the median halved the spread of identity-batch's
  ops_per_s against the fastest sample (IQR/median 4.8% against 7.9%);
- ``op_s_p50``: median latency over every op run, all passes pooled;
- ``peak_rss_mb``: peak resident set of this process.

``--trace 1`` first times one untraced pass, then rebinds each layer's
public functions (see tracer.py) for the timed passes and reports per-layer
metrics per pass, plus the tracing overhead as untraced minus traced ops per
second.  Spans are written to ``benchmarks/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One hash seed for every run: with string hashing randomized per process,
# the same identity-batch deck measured 4.00 to 4.45 ops/s across hash seeds
# and 4.44 to 4.56 ops/s with the seed held at 0.
PINNED_ENV = {"PYTHONHASHSEED": "0", **{v: "1" for v in THREAD_VARS}}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile


class BenchmarkError(Exception):
    """The benchmark cannot run or cannot trust its own result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_library():
    """Import blaschkelab from this checkout's src/ only; returns seconds taken."""
    if not (SRC / "blaschkelab" / "__init__.py").is_file():
        raise BenchmarkError(f"no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import blaschkelab
    import workloads  # noqa: F401 - builds its fixtures at import

    elapsed = time.perf_counter() - start
    if Path(blaschkelab.__file__).resolve().parent != SRC / "blaschkelab":
        raise BenchmarkError(f"blaschkelab imported from {blaschkelab.__file__}, not {SRC}")
    return elapsed


def check_pins() -> tuple[dict, dict]:
    """The tolerances the gates use, refused unless they equal the pinned values."""
    from blaschkelab.config import DEFAULT_TOLERANCES

    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    if dict(DEFAULT_TOLERANCES) != pins["default_tolerances"]:
        raise BenchmarkError(
            f"DEFAULT_TOLERANCES {dict(DEFAULT_TOLERANCES)} differ from the pinned {pins['default_tolerances']}"
        )
    return dict(DEFAULT_TOLERANCES), pins["statistical_bounds"]


def run_op(op, tracer=None, op_id: int = 0) -> list:
    """Gate failures of one op; an exception is a failure too."""
    try:
        return tracer.run_op(op_id, op) if tracer else op()
    except Exception as exc:  # noqa: BLE001 - any error fails the op and the run goes on
        return [f"{type(exc).__name__}: {exc}"]


def run_passes(deck, seconds: float, tracer=None, min_passes: int = 1) -> dict:
    """Whole passes over the deck until ``seconds`` have gone by and at least
    ``min_passes`` are done.  Latencies are kept in run order, pass by pass."""
    latencies: list[float] = []
    failures: list[tuple[int, list]] = []
    marks = [tracer.mark()] if tracer else []
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        for op in deck:
            t0 = time.perf_counter()
            problems = run_op(op, tracer, len(latencies))
            latencies.append(time.perf_counter() - t0)
            if problems:
                failures.append((len(latencies) - 1, problems))
        passes += 1
        if tracer:
            marks.append(tracer.mark())
    return {
        "wall": time.perf_counter() - start,
        "latencies": latencies,
        "failures": failures,
        "passes": passes,
        "marks": marks,
    }


def wall_ops_per_s(measured: dict) -> float:
    """Ops that passed their gates per second of wall time."""
    return (len(measured["latencies"]) - len(measured["failures"])) / measured["wall"]


def median_latencies(measured: dict, deck_ops: int) -> list[float]:
    """Each op's median latency over the passes of a run."""
    lat = measured["latencies"]
    return [statistics.median(lat[i::deck_ops]) for i in range(deck_ops)]


def setup(workload, seed: int, tol: dict, bounds: dict) -> tuple[list, float, list]:
    """Build the deck and run one untimed warm-up op, SETUP_REPEATS times.

    Returns the last deck, the median set-up seconds and any warm-up failures.
    """
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        deck = workload.build(seed, tol, bounds)
        warmup = workload.build(seed, tol, bounds, **workload.warmup_sizes)[0]
        problems = run_op(warmup)
        times.append(time.perf_counter() - start)
    return deck, statistics.median(times), problems


def layer_metrics(tracer, measured: dict, untraced_ops_per_s: float) -> tuple[dict, list]:
    """Per-pass layer metrics, and the count mismatches between passes."""
    marks = measured["marks"]
    per_pass = []
    self_total: dict = {}
    for lo, hi in zip(marks, marks[1:]):
        calls, self_s, counts = tracer.totals(lo, hi)
        per_pass.append({**{f"{k}.calls": v for k, v in calls.items()}, **{k: v for k, v in counts.items() if v}})
        for k, v in self_s.items():
            self_total[k] = self_total.get(k, 0.0) + v
    errors = [f"pass {i + 1} counts {c} differ from pass 1 {per_pass[0]}" for i, c in enumerate(per_pass) if c != per_pass[0]]
    counts = per_pass[0]
    passes = len(per_pass)
    traced_ops_per_s = wall_ops_per_s(measured)
    rounds = counts.get("pathbuild.choose_partition.calls", 0)
    derived = {
        "pathbuild.rounds": rounds,
        "pathbuild.round_yield": counts.get("pathbuild.paths", 0) / rounds if rounds else 0.0,
        "trace.spans": len(tracer.spans) // passes,
        "trace.ops_per_s": traced_ops_per_s,
        "trace.overhead_ops_per_s": untraced_ops_per_s - traced_ops_per_s,
    }
    values = {}
    for m in spec()["per_layer"]:
        name = m["name"]
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = self_total.get(name[: -len(".self_s")], 0.0) / passes
        else:
            values[name] = counts.get(name, 0)
    return values, errors


def provenance(workload: str, seed: int, deck_ops: int, measured: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "workload": workload,
        "seed": seed,
        "deck_ops": deck_ops,
        "passes": measured["passes"],
        "ops": len(measured["latencies"]),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0) -> dict:
    """One benchmark run of a workloads.Workload; ``result`` is the last line printed."""
    from tracer import Tracer

    tol, bounds = check_pins()
    deck, setup_s, warmup_problems = setup(workload, seed, tol, bounds)
    errors = [f"warm-up op: {p}" for p in warmup_problems]

    if trace:
        untraced = wall_ops_per_s(run_passes(deck, 0.0))
        tracer = Tracer()
        tracer.install()
        try:
            measured = run_passes(deck, seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, count_errors = layer_metrics(tracer, measured, untraced)
        errors += count_errors
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload.name}-{seed}.json")
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    else:
        measured = run_passes(deck, seconds, min_passes=workload.passes)
        per_op = median_latencies(measured, len(deck))
        failing_ops = {i % len(deck) for i, _ in measured["failures"]}
        metrics = {
            "setup_s": import_s + setup_s,
            "ops_per_s": (len(deck) - len(failing_ops)) / sum(per_op),
            "op_s_p50": statistics.median(measured["latencies"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}

    lat = measured["latencies"]
    report = {
        "fail_frac": len(measured["failures"]) / len(lat),
        "wall_ops_per_s": wall_ops_per_s(measured),
        "op_s_p90": statistics.quantiles(lat, n=10)[-1] if len(lat) >= P90_MIN_OPS else None,
        "failures": [f"op {i}: {'; '.join(p)}" for i, p in measured["failures"][:10]],
        "errors": errors,
    }
    return {
        "provenance": provenance(workload.name, seed, len(deck), measured),
        "report": report,
        "result": {
            "correct": not measured["failures"] and not errors,
            "attempted": len(lat),
            "failed": len(measured["failures"]),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def pin_interpreter() -> None:
    """Replace this process (same pid, no child) by one started with PINNED_ENV.

    The hash seed is read when the interpreter starts and the BLAS thread
    counts when numpy loads, so both are set before either happens.
    """
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], {**os.environ, **PINNED_ENV})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_interpreter()
    try:
        import_s = import_library()
        import workloads

        out = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)
    except BenchmarkError as exc:
        print(f"benchmark refused to run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": out["provenance"], "report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
