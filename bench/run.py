"""One runner for the micro-benchmarks: every case timed, counted and
compared by the same rule.

    python3 bench/run.py BENCH.json
    python3 bench/run.py new.json --against old.json

A case is (name, build, call, summary). measure() builds the case's input
once, then times build() and call(input) alike: timeit's autorange, then
the median of RUNS repeats, per call in seconds (build_s and median_s).
One more, untimed, call counts the BiSeq.window calls and the symbols they
build, which do not depend on the machine, and records summary(result) and
the sha256 of json.dumps(encode(result), sort_keys=True), so a changed
result shows even when its summary agrees. The cases:

* base_dist near|far k=K, K in 8, 64, 512, 2048 and 65537. near is
  base_dist(periodic_point(k), periodic_point(k + 1).shift(k // 2)), whose
  nearest mismatch is at index -1; far is base_dist(periodic_point(k),
  periodic_point(k + 1)), whose nearest mismatch is at |i| = k. The
  summary is the distance as 2**-n.
* metric_axioms triples=100000: the build draws the criterion-09 triples,
  random_triple(AugSystem(3, "standard", 50), Random(7), k_hi=25); the
  call checks symmetry and the triangle inequality with four aug_dist
  calls per triple. The summary is the violation count.
* chain_classes eps=E, E in 1/24, 1/50, 1/100 and 1/200: the build is
  build_chain_graph on the k_hi = 50 construction sample (3,998 nodes),
  the call chain_classes and edge_count. The summary is the graph's nodes,
  hubs, node-to-hub links, hub members, edges and classes.
* limit_shadow stages=S, S in 10..15, on switching_limit_orbit(stages=S),
  and two_sided_limit_shadow half=H, H in 512, 1024, 2048 and 8192, on
  drifting_two_sided_orbit(half=H), with the CLI's default thresholds.
  The summary is the decay indices.
* shadow_pseudo_orbit hop length=L, L in 1000, 2000, 4000 and 8000: the
  trace at eps 1/4 of hop_pseudo_orbit(length=L, delta_exp=8), seeded 7,
  checked by verify_shadow. The summary is the check's verdict and worst
  distance.

--against embeds an earlier report under "against" and prints its
median, build median and window calls beside each case of the same name.
A case whose summary differs from the earlier one's is marked "summary
differs", one whose digest differs "digest differs" (an earlier report
without digests is not compared that way); either makes the script exit 1
after it writes its report.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import timeit
from fractions import Fraction
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nexpansive.base import BiSeq, base_dist, dyadic, periodic_point  # noqa: E402
from nexpansive.chains import build_chain_graph, chain_classes  # noqa: E402
from nexpansive.codec import encode  # noqa: E402
from nexpansive.samples import (  # noqa: E402
    construction_sample, drifting_two_sided_orbit, hop_pseudo_orbit,
    random_triple, switching_limit_orbit)
from nexpansive.shadowing import (  # noqa: E402
    limit_shadow, shadow_pseudo_orbit, two_sided_limit_shadow, verify_shadow)
from nexpansive.space import AugSystem, aug_dist  # noqa: E402

RUNS = 3
SYSTEM = AugSystem(3, "standard", 50)
TRIPLES = 100_000
HOP_EPS = Fraction(1, 4)
LIMIT_THRESHOLDS = tuple(dyadic(t) for t in range(1, 6))
TWO_SIDED_THRESHOLDS = tuple(dyadic(t) for t in range(1, 5))


def base_case(kind, k):
    shift = k // 2 if kind == "near" else 0
    return (f"base_dist {kind} k={k}",
            lambda: (periodic_point(k), periodic_point(k + 1).shift(shift)),
            lambda pair: base_dist(*pair),
            lambda d: f"2**-{d.denominator.bit_length() - 1}")


def triples():
    rng = random.Random(7)
    return [random_triple(SYSTEM, rng, k_hi=25) for _ in range(TRIPLES)]


def violations(triples):
    count = 0
    for a, b, c in triples:
        ab = aug_dist(a, b)
        count += ab != aug_dist(b, a) or aug_dist(a, c) > ab + aug_dist(b, c)
    return count


@cache
def chain_sample():
    return construction_sample(AugSystem(3), 50, 50, random_count=0)


def chain_summary(result):
    graph, partition, edges = result
    n = len(graph.nodes)
    return {"nodes": n, "hubs": len(graph.hubs),
            "hub_links": sum(v >= n for succ in graph.out for v in succ),
            "hub_members": sum(map(len, graph.hubs)), "edges": edges,
            "classes": partition.class_count()}


def chain_case(eps):
    return (f"chain_classes eps={eps}",
            lambda: build_chain_graph(chain_sample(), eps),
            lambda graph: (graph, chain_classes(graph), graph.edge_count()),
            chain_summary)


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


CASES = ([base_case(kind, k) for kind in ("near", "far")
          for k in (8, 64, 512, 2048, 65537)]
         + [(f"metric_axioms triples={TRIPLES}", triples, violations, int)]
         + [chain_case(Fraction(1, d)) for d in (24, 50, 100, 200)]
         + [limit_case(s) for s in range(10, 16)]
         + [two_sided_case(h) for h in (512, 1024, 2048, 8192)]
         + [hop_case(n) for n in (1000, 2000, 4000, 8000)])


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


def header():
    """What ran, where, on which commit (src_modified: src/ differs)."""
    return {"benchmark": "bench/run.py",
            "machine": {"platform": platform.platform(),
                        "processor": cpu_model(), "cpus": os.cpu_count()},
            "python": platform.python_version(),
            "commit": git("rev-parse", "HEAD"),
            "src_modified": bool(git("status", "--porcelain", "--", "src"))}


def timed(fn):
    """Per-call seconds of RUNS repeats, each of autorange's call number."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return [t / number for t in timer.repeat(RUNS, number)]


def counted(fn):
    """(result, BiSeq.window calls, built symbols) of one fn()."""
    plain = BiSeq.window
    calls = symbols = 0

    def window(self, lo, hi):
        nonlocal calls, symbols
        word = plain(self, lo, hi)
        calls += 1
        symbols += len(word)
        return word

    BiSeq.window = window
    try:
        return fn(), calls, symbols
    finally:
        BiSeq.window = plain


def measure(name, build, call, summary):
    built = build()  # also fills any cache the build reads before timing
    build_times = timed(build)
    times = timed(lambda: call(built))
    result, calls, symbols = counted(lambda: call(built))
    return {"case": name, "runs": RUNS,
            "build_s": statistics.median(build_times),
            "build_times_s": build_times,
            "median_s": statistics.median(times), "times_s": times,
            "window_calls": calls, "window_symbols": symbols,
            "summary": summary(result),
            "sha256": hashlib.sha256(json.dumps(
                encode(result), sort_keys=True).encode()).hexdigest()}


def compare(case, old):
    """The text --against prints after a case, and the case's marks."""
    text = f"  was {old['median_s'] * 1e3:.3f} ms"
    if "build_s" in old:  # tracing reports before BENCH_23 time no build
        text += f", build {old['build_s'] * 1e3:.3f} ms"
    text += f", {old['window_calls']} windows"
    marks = []
    # reports of the former tracing script name the summary "decay"
    if old.get("summary", old.get("decay")) != case["summary"]:
        marks.append("summary differs")
    if old.get("sha256", case["sha256"]) != case["sha256"]:
        marks.append("digest differs")
    return text, marks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--against", type=Path, default=None,
                        help="earlier report to embed and compare with")
    args = parser.parse_args(argv)
    # the far distance at k = 65537 has about 20k digits; encode writes them
    sys.set_int_max_str_digits(0)
    report = {**header(), "cases": []}
    before = {}
    if args.against:
        report["against"] = json.loads(args.against.read_text())
        before = {c["case"]: c for c in report["against"]["cases"]}
    differs = False
    for case in CASES:
        c = measure(*case)
        report["cases"].append(c)
        line = (f"{c['case']:<36} {c['median_s'] * 1e3:10.3f} ms  build "
                f"{c['build_s'] * 1e3:10.3f} ms  {c['window_calls']:>9} "
                f"windows  {c['window_symbols']:>11} symbols")
        if c["case"] in before:
            text, marks = compare(c, before[c["case"]])
            line += text + "".join(f"  {m}" for m in marks)
            differs = differs or bool(marks)
        print(line, flush=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if differs:
        sys.exit(1)


if __name__ == "__main__":
    main()
