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
import os
import platform
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nexpansive.base import BiSeq, base_dist, periodic_point  # noqa: E402

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
        "window_symbols": window_symbols(x, y),
        "distance": str(base_dist(x, y)),
    }


def window_symbols(x, y):
    """Total length of the windows one base_dist(x, y) call builds."""
    plain = BiSeq.window
    built = 0

    def counted(self, lo, hi):
        nonlocal built
        word = plain(self, lo, hi)
        built += len(word)
        return word

    BiSeq.window = counted
    try:
        base_dist(x, y)
    finally:
        BiSeq.window = plain
    return built


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--levels", default=",".join(map(str, LEVELS)),
                        help="comma-separated levels k")
    args = parser.parse_args()
    levels = [int(k) for k in args.levels.split(",")]
    report = {
        "benchmark": "base_scaling",
        "machine": {"platform": platform.platform(),
                    "processor": cpu_model(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "cases": [case(k) for k in levels],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for c in report["cases"]:
        print(f"k={c['k']:>6}  {c['median_ms']:10.4f} ms  "
              f"{c['window_symbols']:>12} window symbols")


if __name__ == "__main__":
    main()
