"""Run one legknot benchmark workload and print its metrics.

    python3 bench/run.py --workload fronts|knots|fiber --seed N --seconds S --trace 0|1

Run it from the root of a legknot checkout; it imports the library from
``src/``.  One caller drives a closed loop on one thread: each operation
starts when the previous one has returned and been checked.  The run
attempts whole rounds of its workload until ``--seconds`` have passed and
at least MIN_OPS operations were made.  Timings are taken per round and
reported as medians over rounds (see :func:`end_to_end`).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from
:mod:`tracing`.  A summary per operation class goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
MIN_OPS = 1000  # so that at least ten operations lie beyond the 99th percentile
MIN_SETUP_SAMPLES = 9
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import legknot.cli\n"
    "legknot.cli._build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup() -> float:
    """Time a fresh interpreter spends importing legknot.cli and building its parser."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def drive(workload: str, seed: int, seconds: float, env, tracer=None, rounds=None, setup=False) -> dict:
    """Run whole rounds until the time is up (or for exactly `rounds` rounds).

    With `setup`, one fresh-interpreter set-up is timed before each round,
    so the set-up samples spread over the run like the operations do.
    """
    import workloads

    rng = random.Random(seed)
    per_round, by_kind = [], defaultdict(list)
    failed, unexpected, fixed, setups = 0, [], set(), []
    if setup:
        measure_setup()  # the first import in a fresh checkout also writes the bytecode cache
    deadline = time.perf_counter() + seconds
    while True:
        if setup:
            setups.append(measure_setup())
        latencies, round_failed = [], 0
        for op in workloads.WORKLOADS[workload](rng, env):
            error = result = None
            with tracer.op() if tracer else nullcontext():
                start = time.perf_counter_ns()
                try:
                    result = op.call()
                except (Exception, SystemExit) as exc:
                    error = "%s: %s" % (type(exc).__name__, exc)
                elapsed = time.perf_counter_ns() - start
            latencies.append(elapsed)
            by_kind[op.kind].append(elapsed)
            if error is None:
                if tracer and isinstance(result, workloads.CliResult):
                    tracer.add("cli.out_bytes", len(result.out.encode()))
                try:
                    op.check(result)
                except Exception as exc:  # a malformed output fails its check too
                    error = "%s: %s" % (type(exc).__name__, exc)
            if error is not None:
                round_failed += 1
                if op.fault is None:
                    unexpected.append("%s: %s" % (op.kind, error))
            elif op.fault is not None:
                fixed.add(op.fault)
        per_round.append((latencies, round_failed))
        failed += round_failed
        if rounds is not None:
            if len(per_round) >= rounds:
                break
        elif time.perf_counter() >= deadline and sum(len(lat) for lat, _ in per_round) >= MIN_OPS:
            break
    while setup and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(measure_setup())
    return {"per_round": per_round, "by_kind": by_kind, "failed": failed,
            "unexpected": unexpected, "fixed": fixed, "setups": setups}


def blocks(per_round, size: int):
    """Latencies of consecutive rounds pooled into blocks of at least `size`; a short tail joins the last block."""
    out = [[]]
    for lat, _ in per_round:
        if len(out[-1]) >= size:
            out.append([])
        out[-1].extend(lat)
    if len(out) > 1 and len(out[-1]) < size:
        out[-2].extend(out.pop())
    return out


def end_to_end(run: dict) -> dict:
    """Each timing as a median over the run's rounds.

    Every round holds the same operations, so rounds differ in speed
    mostly by what else the machine runs, and the median over rounds
    moves less than one figure pooled over the whole run.  The 99th
    percentile is taken per block of consecutive rounds holding at least
    MIN_OPS operations, and the median over blocks is reported.
    """
    per_round = run["per_round"]
    return {
        "setup_s": (statistics.median(run["setups"]), "s"),
        "ops_per_s": (statistics.median((len(lat) - bad) / (sum(lat) / 1e9) for lat, bad in per_round), "ops/s"),
        "op_p50_ms": (statistics.median(statistics.median(lat) for lat, _ in per_round) / 1e6, "ms"),
        "op_p99_ms": (statistics.median(statistics.quantiles(b, n=100)[98] for b in blocks(per_round, MIN_OPS)) / 1e6,
                      "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report(run: dict, metrics: dict) -> str:
    """Print the per-class summary to stderr and return the JSON result line."""
    print("rounds=%d" % len(run["per_round"]), file=sys.stderr)
    for kind, lat in sorted(run["by_kind"].items()):
        print("%-22s n=%-6d p50=%9.3f ms  max=%9.3f ms" % (kind, len(lat), statistics.median(lat) / 1e6,
                                                            max(lat) / 1e6), file=sys.stderr)
    for line in run["unexpected"][:10]:
        print("UNEXPECTED FAILURE %s" % line, file=sys.stderr)
    for fault in sorted(run["fixed"]):
        print("known fault %s no longer reproduces" % fault, file=sys.stderr)
    return json.dumps({
        "correct": not run["unexpected"],
        "attempted": sum(len(lat) for lat, _ in run["per_round"]),
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORKDIR.rmdir()
    except OSError:  # another run still uses it
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fronts", "knots", "fiber"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "legknot" / "cli.py").is_file():
        print("error: no legknot sources under %s; run from a legknot checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = drive(args.workload, args.seed, args.seconds, workloads.Env(workdir), tracer, setup=not args.trace)
    finally:
        remove_workdir(workdir)
    if tracer:
        latencies = [ns for lat, _ in run["per_round"] for ns in lat]
        metrics = tracer.metrics(len(latencies), sum(latencies))
    else:
        metrics = end_to_end(run)
    print(report(run, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
