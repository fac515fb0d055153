"""Scaling of base_dist with the period length of tagged periodic points.

Times base_dist(periodic_point(k), periodic_point(k + 1).shift(k // 2))
at several levels k and counts the symbols of every window the call
builds. The two points have coprime periods k + 1 and k + 2, so a tail
comparison bounded by lcm(p, q) grows quadratically in k while one
bounded by p + q - gcd(p, q) grows linearly.

    python3 bench/base_scaling.py BENCH.json
    python3 bench/base_scaling.py out.json --levels 8,64,512,2048

The times are medians over seven batches of timeit's autorange and are
per call, in milliseconds. The window count is deterministic.
"""

import argparse
import json
import statistics
import timeit
from pathlib import Path

from common import header, window_counts  # also puts src/ on sys.path
from nexpansive.base import base_dist, periodic_point

LEVELS = (8, 64, 512, 2048, 65537)
REPEATS = 7


def case(k):
    x, y = periodic_point(k), periodic_point(k + 1).shift(k // 2)
    timer = timeit.Timer(lambda: base_dist(x, y))
    number, _ = timer.autorange()
    per_call = [t / number for t in timer.repeat(REPEATS, number)]
    return {
        "k": k,
        "median_ms": statistics.median(per_call) * 1e3,
        "runs": REPEATS,
        "calls_per_run": number,
        "window_symbols": window_counts(lambda: base_dist(x, y))[1],
        "distance": str(base_dist(x, y)),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--levels", default=",".join(map(str, LEVELS)),
                        help="comma-separated levels k")
    args = parser.parse_args()
    levels = [int(k) for k in args.levels.split(",")]
    report = {**header("base_scaling"), "cases": [case(k) for k in levels]}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for c in report["cases"]:
        print(f"k={c['k']:>6}  {c['median_ms']:10.4f} ms  "
              f"{c['window_symbols']:>12} window symbols")


if __name__ == "__main__":
    main()
