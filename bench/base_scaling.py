"""Scaling of base_dist with the period length of tagged periodic points.

Two cases at several levels k, each timed and with the symbols of every
window the call builds counted:

* near: base_dist(periodic_point(k), periodic_point(k + 1).shift(k // 2)).
  The nearest mismatch is at index -1, the right one near k // 2. The
  periods k + 1 and k + 2 are coprime, so a tail comparison bounded by
  lcm(p, q) grows quadratically in k, one bounded by p + q - gcd(p, q)
  linearly, and a scan that stops at the nearest mismatch not at all.
* far: base_dist(periodic_point(k), periodic_point(k + 1)), whose nearest
  mismatch is at |i| = k, so even that scan grows linearly in k.

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


CASES = {
    "near": lambda k: (periodic_point(k), periodic_point(k + 1).shift(k // 2)),
    "far": lambda k: (periodic_point(k), periodic_point(k + 1)),
}


def case(name, k):
    x, y = CASES[name](k)
    timer = timeit.Timer(lambda: base_dist(x, y))
    number, _ = timer.autorange()
    per_call = [t / number for t in timer.repeat(REPEATS, number)]
    return {
        "case": name,
        "k": k,
        "median_ms": statistics.median(per_call) * 1e3,
        "runs": REPEATS,
        "calls_per_run": number,
        "window_symbols": window_counts(lambda: base_dist(x, y))[1],
        # 2**-65537 has too many digits for str()
        "distance": f"2**-{base_dist(x, y).denominator.bit_length() - 1}",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--levels", default=",".join(map(str, LEVELS)),
                        help="comma-separated levels k")
    args = parser.parse_args()
    levels = [int(k) for k in args.levels.split(",")]
    report = {**header("base_scaling"),
              "cases": [case(name, k) for name in CASES for k in levels]}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for c in report["cases"]:
        print(f"{c['case']:>4} k={c['k']:>6}  {c['median_ms']:10.4f} ms  "
              f"{c['window_symbols']:>12} window symbols")


if __name__ == "__main__":
    main()
