"""Chain reachability graphs and chain-recurrent classes over finite samples.

A node u steps to v when one application of the map lands strictly within
eps of v, so walks in the graph are exactly the finite eps-pseudo-orbits
through the sample. Two nodes share a class when each reaches the other
through at least one step; nodes that cannot return to themselves are
reported separately as transient at this resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from nexpansive.base import agree_radius
from nexpansive.space import (
    ExtraPoint,
    aug_dist,
    aug_map,
    canonical_key,
    level_gap,
    project,
)


@dataclass(frozen=True)
class ChainGraph:
    epsilon: Fraction
    nodes: tuple
    adjacency: tuple   # adjacency[u] = tuple of successor indices

    def edge_count(self):
        return sum(len(a) for a in self.adjacency)


def build_chain_graph(sample, eps):
    """Exact one-step reachability graph of the sample at resolution eps.

    An edge u -> v means aug_dist(f(u), v) < eps. Two facts of the metric
    narrow the pairs that need that exact test, without losing an edge:

    * Cylinder buckets. Let depth be the least integer >= -1 with
      2**-(depth+1) < eps. The tag gap is never negative, so an edge
      forces base_dist(project(f(u)), project(v)) < eps, and so the two
      projections agree on [-depth, depth]. Only nodes whose projection
      spells the same word there as project(f(u)) are tested. For eps > 1,
      depth = -1 and every node shares the one empty-word bucket.
    * Isolated satellites. The tag gap of a pair involving a level-k
      satellite is at least 1/k. A satellite with 1/k >= eps therefore
      steps only to its own image and is reached only from its preimage,
      so it sits in no bucket and gets at most that single successor.

    Every remaining candidate is confirmed with aug_dist. Successors are
    listed in ascending node index.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    nodes = tuple(sorted(set(sample), key=canonical_key))
    index = {v: i for i, v in enumerate(nodes)}
    depth = agree_radius(eps, True) - 1

    def isolated(x):
        return isinstance(x, ExtraPoint) and level_gap(x.k) >= eps

    def cylinder(x):
        return project(x).window(-depth, depth + 1)

    buckets = {}
    for vi, v in enumerate(nodes):
        if not isolated(v):
            buckets.setdefault(cylinder(v), []).append(vi)
    adjacency = []
    for u in nodes:
        image = aug_map(u)
        if isolated(u):
            adjacency.append((index[image],) if image in index else ())
        else:
            # From a list, not a generator: tuple() would grow a guessed
            # size by resizing, and the resized tuples pile up in the
            # interpreter's free lists, raising peak memory over many calls.
            adjacency.append(tuple([
                vi for vi in buckets.get(cylinder(image), ())
                if aug_dist(image, nodes[vi]) < eps]))
    return ChainGraph(epsilon=eps, nodes=nodes, adjacency=tuple(adjacency))


def _tarjan_sccs(adjacency):
    """Strongly connected components, iterative, in reverse topological order."""
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recursed = False
            for i in range(pi, len(adjacency[v])):
                w = adjacency[v][i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recursed = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recursed:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


@dataclass(frozen=True)
class ClassPartition:
    epsilon: Fraction
    classes: tuple     # tuple of tuples of AugPoint
    transient: tuple   # nodes with no returning pseudo-orbit in the sample

    def class_count(self):
        return len(self.classes)


def chain_classes(graph):
    """Partition the graph's recurrent part into chain classes.

    A strongly connected component is a class when it carries at least one
    edge (a larger component always does; a singleton needs a self loop).
    Classes are ordered by their least node index, nodes inside a class by
    index, so the output is deterministic for a fixed sample.
    """
    sccs = _tarjan_sccs(graph.adjacency)
    classes = []
    transient = []
    for comp in sccs:
        comp = sorted(comp)
        if len(comp) > 1 or comp[0] in graph.adjacency[comp[0]]:
            classes.append(comp)
        else:
            transient.append(comp[0])
    classes.sort(key=lambda comp: comp[0])
    # Tuples from lists, as in build_chain_graph, to keep peak memory flat.
    return ClassPartition(
        epsilon=graph.epsilon,
        classes=tuple(tuple([graph.nodes[i] for i in comp]) for comp in classes),
        transient=tuple([graph.nodes[i] for i in sorted(transient)]))


def edges_csv(graph):
    """Edge list as CSV lines (u_index, v_index), header included."""
    lines = ["u,v"]
    for u, succs in enumerate(graph.adjacency):
        lines.extend(f"{u},{v}" for v in succs)
    return "\n".join(lines) + "\n"
