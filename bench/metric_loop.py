"""The criterion-09 loop: metric axioms on 100k random triples.

Draws random_triple(AugSystem(3, "standard", 50), Random(7), k_hi=25)
and checks symmetry and the triangle inequality with four aug_dist calls
per triple, as tests/test_acceptance.py does, timing generation and
distances apart, in seconds, over one run. One more, untimed, run counts
the BiSeq.window calls and symbols of the distance calls (generation
builds no window).

    python3 bench/metric_loop.py out.json

Each invocation is one standalone run; take the median over several.
"""

import argparse
import json
import random
import time
from pathlib import Path

from common import header, window_counts  # also puts src/ on sys.path
from nexpansive.samples import random_triple
from nexpansive.space import AugSystem, aug_dist


TRIPLES = 100_000


def loop():
    """(generation seconds, distance seconds, violations) of one run."""
    system = AugSystem(3, "standard", 50)
    rng = random.Random(7)
    gen = dist = 0.0
    failures = 0
    for _ in range(TRIPLES):
        t0 = time.perf_counter()
        a, b, c = random_triple(system, rng, k_hi=25)
        t1 = time.perf_counter()
        ab = aug_dist(a, b)
        if ab != aug_dist(b, a) or aug_dist(a, c) > ab + aug_dist(b, c):
            failures += 1
        dist += time.perf_counter() - t1
        gen += t1 - t0
    return gen, dist, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args()
    gen, dist, failures = loop()
    calls, symbols = window_counts(loop)
    report = {
        **header("metric_loop"),
        "triples": TRIPLES,
        "violations": failures,
        "generation_s": gen,
        "distance_s": dist,
        "total_s": gen + dist,
        "window_calls": calls,
        "window_symbols": symbols,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"generation {gen:.2f} s  distances {dist:.2f} s  {calls} window "
          f"calls, {symbols} symbols, {failures} violations")


if __name__ == "__main__":
    main()
