"""Chain reachability graphs and chain-recurrent classes over finite samples.

A node u steps to v when one application of the map lands strictly within
eps of v, so walks in the graph are exactly the finite eps-pseudo-orbits
through the sample. Two nodes share a class when each reaches the other
through at least one step; nodes that cannot return to themselves are
reported separately as transient at this resolution.

No distance is computed. With tag level k for a level-k satellite and 0
for a base point, the metric of nexpansive.space puts a pair of levels k
and m within eps exactly when their projections agree on |j| < r, for
r = residual_radius(eps, k, m, True), and never when r is None. So an
edge is a bucket membership: the nodes of one level keyed by the word of
their projection on [1 - r, r]. Two cases the metric treats apart are
added explicitly: the image itself (distance 0) and the other satellites
over its orbit position (distance 1/k).

Every image that hits a bucket steps to all of its members, so the graph
keeps one hub per bucket hit, with edges u -> hub -> member (Feder and
Motwani, Clique partitions, graph compression and speeding-up
algorithms, JCSS 1995). Reachability among the nodes is unchanged, so
the classes are read off the strongly connected components of the hub
graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from nexpansive.space import (
    ExtraPoint,
    aug_map,
    canonical_key,
    level_gap,
    project,
    residual_radius,
)


@dataclass(frozen=True)
class ChainGraph:
    """The chain graph in hub form.

    out[u] lists the successors of node u in the hub graph: a node index
    v < len(nodes), or len(nodes) + h for hubs[h], the ascending node
    indices u steps to through that hub. No node is listed twice across
    out[u] and its hubs.
    """

    epsilon: Fraction
    nodes: tuple
    out: tuple
    hubs: tuple

    @functools.cached_property
    def adjacency(self):
        """adjacency[u] = ascending tuple of the successor nodes of u."""
        n, hubs = len(self.nodes), self.hubs
        return tuple(
            tuple(sorted([w for v in succ
                          for w in ((v,) if v < n else hubs[v - n])]))
            for succ in self.out)

    def edge_count(self):
        """The number of edges, read off the hub sizes."""
        n = len(self.nodes)
        sizes = [len(members) for members in self.hubs]
        return sum(1 if v < n else sizes[v - n]
                   for succ in self.out for v in succ)


def _level(x):
    return x.k if isinstance(x, ExtraPoint) else 0


def build_chain_graph(sample, eps):
    """Exact one-step reachability graph of the sample at resolution eps.

    An edge u -> v means aug_dist(f(u), v) < eps, decided by the rule of
    the module docstring. Each level is bucketed once per radius asked of
    it (r = 0 is one bucket of the whole level), and the first image to
    hit a bucket makes it a hub. The level-k bucket of a level-k image
    holds the image and the copies over its position, whose projections
    equal the image's; only when 2/k >= eps is there none, and they are
    added directly: the image, and the copies when 1/k < eps. So u has at
    most one hub per level and direct nodes only at a level without one.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    nodes = tuple(sorted(set(sample), key=canonical_key))
    n = len(nodes)
    levels, positions = {}, {}
    for vi, v in enumerate(nodes):
        levels.setdefault(_level(v), []).append(vi)
        if isinstance(v, ExtraPoint):
            positions.setdefault((v.k, v.j), []).append(vi)
    targets = {}   # image level k -> [(m, r), ...]
    buckets = {}   # (m, r) -> {word: members}
    hub_ids = {}   # (m, r, word) -> hub vertex
    hubs = []
    out = []
    for u in nodes:
        image = aug_map(u)
        k = _level(image)
        if k not in targets:
            targets[k] = [(m, r) for m in levels
                          if (r := residual_radius(eps, k, m, True)) is not None]
        succ = []
        if k and residual_radius(eps, k, k, True) is None:
            succ.extend(vi for vi in positions.get((k, image.j), ())
                        if level_gap(k) < eps or nodes[vi] == image)
        seq = project(image)
        words = {}
        for m, r in targets[k]:
            if r not in words:
                words[r] = seq.window(1 - r, r)
            word = words[r]
            if (m, r) not in buckets:
                grouped = buckets[m, r] = {}
                for vi in levels[m]:
                    grouped.setdefault(project(nodes[vi]).window(1 - r, r),
                                       []).append(vi)
            members = buckets[m, r].get(word)
            if members is None:
                continue
            key = (m, r, word)
            if key not in hub_ids:
                hub_ids[key] = n + len(hubs)
                hubs.append(tuple(members))
            succ.append(hub_ids[key])
        # From a list, not a generator: tuple() would grow a guessed size
        # by resizing, and the resized tuples pile up in the interpreter's
        # free lists, raising peak memory over many calls.
        out.append(tuple(succ))
    return ChainGraph(epsilon=eps, nodes=nodes, out=tuple(out),
                      hubs=tuple(hubs))


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

    Tarjan runs on the hub graph: nodes plus hubs. A component's nodes form
    a class when it carries at least one edge: a component of more than
    one vertex always does, as its cycles run through nodes; a lone node
    needs a direct self loop, since a loop through a hub puts the hub in
    its component. Components of a lone hub are skipped. Classes are
    ordered by their least node index, nodes inside a class by index, so
    the output is deterministic for a fixed sample.
    """
    n = len(graph.nodes)
    classes = []
    transient = []
    for comp in _tarjan_sccs(graph.out + graph.hubs):
        members = sorted(v for v in comp if v < n)
        if not members:
            continue
        if len(comp) > 1 or members[0] in graph.out[members[0]]:
            classes.append(members)
        else:
            transient.append(members[0])
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
