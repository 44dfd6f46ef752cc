"""Reference scaling curves of the costly library paths, one line per size.

    python3 bench/curves.py

Prints the median of a few in-process calls for each size, in ms, along
the parameter that drives each cost: event count, |p|/q, Farey depth,
monodromy power k and chord count m, plus the wall time of one cold
``legknot`` process.  These are reference figures for the README, not
benchmark metrics.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import oracles as o  # noqa: E402
from legknot import bypass, classify, convex, front  # noqa: E402
from legknot.classify import Sign  # noqa: E402


def median_ms(fn, repeat=5) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main() -> None:
    rng = random.Random(1)
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    cold = median_ms(lambda: subprocess.run([sys.executable, "-m", "legknot.cli", "farey-cf", "7", "3"],
                                            env=env, check=True, capture_output=True))
    print("cold CLI call (farey-cf 7 3): %.0f ms" % cold)
    for n in (125, 250, 500, 1000, 2000):
        text = "L 1\nL 1\n" + "X 2\n" * ((n - 4) | 1) + "R 1\nR 1\n"  # odd: one component
        d = front.parse_front(text)
        print("events=%-5d parse+invariants %.2f ms  stabilize_diagram %.2f ms" % (
            n, median_ms(lambda: front.invariants(front.parse_front(text))),
            median_ms(lambda: front.stabilize_diagram(d, Sign.PLUS, n // 2, 1))))
    for a in (101, 1001, 10001):
        k = classify.torus(-a, 3)
        print("|p|/q=%-5d realizable %.2f ms" % (a // 3, median_ms(lambda: classify.realizable(k, -3 * a - 5, 1))))
    for a in (31, 101, 301, 1001):
        k = classify.torus(-a, 3)
        peaks = classify.peaks(k)
        print("|p|/q=%-5d valleys %.1f ms" % (a // 3, median_ms(lambda: [
            classify.common_destabilization(k, x, y) for x, y in zip(peaks, peaks[1:])], repeat=1)))
    for depth, k in ((10, 0), (20, 0), (40, 0), (80, 0), (5, 50), (5, 100), (5, 150), (5, -150)):
        base = o.farey_triangle(rng, depth)
        config = bypass.make_config("III:" + ",".join(o.slope_text(o.shift(v, k)) for v in base))
        print("depth=%-3d k=%-5d normalize %.1f ms" % (depth, k, median_ms(lambda: bypass.normalize(config), 3)))
    for m in range(6, 11):
        print("m=%-3d disk_rotation_set %.1f ms" % (m, median_ms(lambda: convex.disk_rotation_set(m), 1)))


if __name__ == "__main__":
    main()
