"""Scaling of the tracers with the length of the traced pseudo-orbit.

Times limit_shadow on switching_limit_orbit(stages=s), whose prefix has
2**s points, and two_sided_limit_shadow on drifting_two_sided_orbit(half=h),
whose window has 2h + 1 points, with the thresholds the CLI uses by
default; and shadow_pseudo_orbit at eps 1/4 on hop_pseudo_orbit(length=L,
delta_exp=8), seeded 7, checked by verify_shadow: its result is the traced
point and the check, and its summary the check's verdict and worst
distance in place of the decays. Building the pseudo-orbit (and
validating its jumps) is timed apart, as build_s beside the trace's
median_s. Each case also counts the BiSeq.window calls and the symbols
they build in one extra, untimed trace; those counts do not depend on
the machine.

    python3 bench/tracing_scaling.py BENCH.json
    python3 bench/tracing_scaling.py new.json --against old.json

Each case also records the sha256 of its whole result, as
json.dumps(encode(result), sort_keys=True), so a changed traced point,
stage flag or candidate list shows even when the decays agree.

--against embeds an earlier report of this script (for example one made
on a checkout of the parent commit) under "against" and prints its median
and window count beside each case, and its build median when it has one.
A case whose decay summary differs from the earlier one's is marked "decay
differs", and one whose result digest differs is marked "report differs"
(an earlier report without digests is not compared that way); either makes
the script exit 1 after writing its report. Times are medians over RUNS
runs, in seconds.
"""

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from common import header, window_counts  # also puts src/ on sys.path
from nexpansive.base import dyadic
from nexpansive.codec import encode
from nexpansive.samples import (drifting_two_sided_orbit, hop_pseudo_orbit,
                                switching_limit_orbit)
from nexpansive.shadowing import (limit_shadow, shadow_pseudo_orbit,
                                  two_sided_limit_shadow, verify_shadow)
from nexpansive.space import AugSystem

STAGES = (10, 11, 12, 13, 14, 15)
HALVES = (512, 1024, 2048, 8192)
LENGTHS = (1000, 2000, 4000, 8000)
HOP_EPS = Fraction(1, 4)
RUNS = 3
SYSTEM = AugSystem(3, "standard", 50)
LIMIT_THRESHOLDS = tuple(dyadic(t) for t in range(1, 6))
TWO_SIDED_THRESHOLDS = tuple(dyadic(t) for t in range(1, 5))


def limit_case(stages):
    return (f"limit_shadow stages={stages}",
            lambda: switching_limit_orbit(stages=stages),
            lambda lpo: limit_shadow(SYSTEM, lpo, thresholds=LIMIT_THRESHOLDS),
            lambda r: [str(i) for _, i in r.decay])


def two_sided_case(half):
    return (f"two_sided_limit_shadow half={half}",
            lambda: drifting_two_sided_orbit(half=half),
            lambda tslpo: two_sided_limit_shadow(
                SYSTEM, tslpo, thresholds=TWO_SIDED_THRESHOLDS),
            lambda r: [[str(i) for _, i in r.past_decay],
                       [str(i) for _, i in r.future_decay]])


def traced_and_checked(po):
    y = shadow_pseudo_orbit(po, HOP_EPS)
    return y, verify_shadow(po, y, HOP_EPS)


def hop_case(length):
    return (f"shadow_pseudo_orbit hop length={length}",
            lambda: hop_pseudo_orbit(SYSTEM, random.Random(7), length=length,
                                     delta_exp=8),
            traced_and_checked,
            lambda r: [r[1].ok, str(r[1].worst_dist)])


def timed(call, *args):
    """(last result, RUNS times) of RUNS calls."""
    times = []
    for _ in range(RUNS):
        t = time.perf_counter()
        result = call(*args)
        times.append(time.perf_counter() - t)
    return result, times


def measure(name, build, trace, summary):
    po, build_times = timed(build)
    result, times = timed(trace, po)
    calls, symbols = window_counts(lambda: trace(po))
    return {"case": name, "points": po.end - po.start + 1,
            "build_s": statistics.median(build_times),
            "build_times_s": build_times,
            "median_s": statistics.median(times), "runs": RUNS,
            "times_s": times, "window_calls": calls,
            "window_symbols": symbols, "decay": summary(result),
            "sha256": hashlib.sha256(json.dumps(
                encode(result), sort_keys=True).encode()).hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--against", type=Path, default=None,
                        help="earlier report to embed and compare with")
    args = parser.parse_args()
    cases = ([limit_case(s) for s in STAGES]
             + [two_sided_case(h) for h in HALVES]
             + [hop_case(n) for n in LENGTHS])
    report = {**header("tracing_scaling"), "cases": []}
    before = {}
    differs = False
    if args.against:
        report["against"] = json.loads(args.against.read_text())
        before = {c["case"]: c for c in report["against"]["cases"]}
    for case in cases:
        c = measure(*case)
        report["cases"].append(c)
        line = (f"{c['case']:<36} {c['median_s']:8.3f} s  "
                f"build {c['build_s']:7.3f} s  "
                f"{c['window_calls']:>9} windows  "
                f"{c['window_symbols']:>11} symbols")
        old = before.get(c["case"])
        if old:
            line += (f"  was {old['median_s']:.3f} s, "
                     f"{old['window_calls']} windows")
            if "build_s" in old:
                line += f", build {old['build_s']:.3f} s"
            if old["decay"] != c["decay"]:
                line += "  decay differs"
                differs = True
            if old.get("sha256", c["sha256"]) != c["sha256"]:
                line += "  report differs"
                differs = True
        print(line, flush=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if differs:
        sys.exit(1)


if __name__ == "__main__":
    main()
