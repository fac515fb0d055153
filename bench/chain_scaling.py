"""Chain graphs and classes of the k_hi = 50 construction sample.

Builds construction_sample(AugSystem(3), 50, 50, random_count=0), 3,998
nodes, and for each eps in 1/24, 1/50, 1/100 and 1/200 times
build_chain_graph, chain_classes and edge_count, in seconds, and records
the graph's size: nodes, hubs, node-to-hub links, hub members summed, the
edge count and the class count. A graph without hubs (a checkout before
the hub form) records its hub fields as null.

    python3 bench/chain_scaling.py out.json

Each invocation is one standalone run; take the median over several.
"""

import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

from common import header  # also puts src/ on sys.path
from nexpansive.chains import build_chain_graph, chain_classes
from nexpansive.samples import construction_sample
from nexpansive.space import AugSystem


K_HI = 50
RESOLUTIONS = (Fraction(1, 24), Fraction(1, 50), Fraction(1, 100),
               Fraction(1, 200))


def case(sample, eps):
    t0 = time.perf_counter()
    graph = build_chain_graph(sample, eps)
    t1 = time.perf_counter()
    classes = chain_classes(graph).class_count()
    t2 = time.perf_counter()
    edges = graph.edge_count()
    t3 = time.perf_counter()
    hubs = getattr(graph, "hubs", None)
    n = len(graph.nodes)
    return {
        "eps": str(eps),
        "build_s": t1 - t0,
        "classes_s": t2 - t1,
        "edge_count_s": t3 - t2,
        "nodes": n,
        "hubs": None if hubs is None else len(hubs),
        "hub_links": None if hubs is None else sum(
            v >= n for succ in graph.out for v in succ),
        "hub_members": None if hubs is None else sum(map(len, hubs)),
        "edges": edges,
        "classes": classes,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args()
    sample = construction_sample(AugSystem(3), K_HI, K_HI, random_count=0)
    cases = [case(sample, eps) for eps in RESOLUTIONS]
    total = sum(c["build_s"] + c["classes_s"] + c["edge_count_s"]
                for c in cases)
    report = {**header("chain_scaling"), "k_hi": K_HI, "cases": cases,
              "total_s": total}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for c in cases:
        print(f"eps {c['eps']:>5}: build {c['build_s']:.3f} s  classes "
              f"{c['classes_s']:.3f} s  {c['hubs']} hubs  {c['edges']} edges"
              f"  {c['classes']} classes")
    print(f"total {total:.3f} s")


if __name__ == "__main__":
    main()
