"""Tiny-size self-check of the benchmark; finishes in a few seconds.

    python3 bench/selfcheck.py

Runs one tiny round of every workload, untraced and then traced, so
every operation class and every check runs at least once.  It fails if
an operation outside the known faults fails, if an operation class is
missing, or if a run does not produce every metric that BENCHMARK.json
names.  It is not part of the test suite.
"""

from __future__ import annotations

import json
import os
import sys

import run

EXPECTED_KINDS = {
    "fronts": {"grow", "invariants"},
    "knots": {"classify", "isotopic", "transversal-max-sl", "bounds", "transversal-iterated", "range", "valleys"},
    "fiber": {"normalize-III", "normalize-I", "normalize-arcs", "bypass-malformed", "farey-cf", "farey-count",
              "disk_rotation_set"},
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    workdir = run.WORKDIR / ("selfcheck-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    tracer = tracing.Tracer()
    try:
        for traced in (False, True):
            if traced:
                tracer.install()
            for name, kinds in EXPECTED_KINDS.items():
                env = workloads.Env(workdir, tiny=True)
                result = run.drive(name, 1, 0, env, tracer if traced else None, rounds=1, setup=not traced)
                problems += ["%s: %s" % (name, line) for line in result["unexpected"]]
                if set(result["by_kind"]) != kinds:
                    problems.append("%s ran %s, expected %s" % (name, sorted(result["by_kind"]), sorted(kinds)))
                if not traced and set(run.end_to_end(result)) != names["end_to_end"]:
                    problems.append("%s end-to-end metrics differ from BENCHMARK.json" % name)
                print("%-6s traced=%d ops=%d failed=%d" % (name, traced, len(result["per_round"][0][0]), result["failed"]))
        if set(tracer.metrics(1, 0)) != names["per_layer"]:
            problems.append("per-layer metrics differ from BENCHMARK.json")
    finally:
        run.remove_workdir(workdir)
    for line in problems:
        print("FAIL", line)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
