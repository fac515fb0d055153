"""The four verification workloads, driven through nexpansive's public API.

Each workload class builds its inputs from a seed in ``__init__`` (that is
the set-up the benchmark times as ``setup_s``) and then exposes:

* ``inputs``: the items of one verification pass, in pass order;
* ``run(item)``: the timed work for one item, returning its output;
* ``check(item, out)``: untimed output check, returning a problem string or
  None;
* ``record(item, out)``: the mathematically defined part of the output, as
  text. Records of one pass are hashed into the pass digest. Anything a
  different but valid implementation may legitimately change (stable-class
  representatives and members, traced points) stays out of the record.

Functions from nexpansive are bound here by name on purpose: the traced run
installs its wrappers in this module's namespace as well.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from nexpansive.base import dyadic
from nexpansive.chains import build_chain_graph, chain_classes
from nexpansive.codec import encode
from nexpansive.expansivity import local_stable_radius, stable_class_count
from nexpansive.samples import (
    construction_sample,
    drifting_two_sided_orbit,
    hop_pseudo_orbit,
    random_triple,
    switching_limit_orbit,
)
from nexpansive.shadowing import (
    PseudoOrbit,
    limit_shadow,
    shadow_pseudo_orbit,
    two_sided_limit_shadow,
    verify_shadow,
)
from nexpansive.space import (
    AugSystem,
    ExtraPoint,
    aug_dist,
    aug_iterate,
    aug_map,
    canonical_key,
    orbit_label,
)

N = 3
QUARTER = Fraction(1, 4)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class MetricTriples:
    """Criterion-09 triples: symmetry and triangle inequality per triple."""

    name = "metric-triples"
    triples = 20_000

    def __init__(self, seed):
        self.system = AugSystem(N, "standard", 50)
        rng = random.Random(seed)
        self.inputs = [random_triple(self.system, rng, k_hi=25)
                       for _ in range(self.triples)]

    def run(self, triple):
        a, b, c = triple
        return aug_dist(a, b), aug_dist(b, a), aug_dist(a, c), aug_dist(b, c)

    def check(self, triple, out):
        ab, ba, ac, bc = out
        if ab != ba:
            return f"d(a,b)={ab} but d(b,a)={ba}"
        if ac > ab + bc:
            return f"triangle inequality fails: {ac} > {ab} + {bc}"
        return None

    def record(self, triple, out):
        ab, _, ac, bc = out
        return f"{ab} {ac} {bc}"


def _closure_partition(adjacency):
    """Chain classes and transient nodes from transitive closure.

    Independent of the Tarjan pass in nexpansive.chains: reach[u] is the
    bitset of nodes reachable from u in one or more steps (Warshall).
    """
    n = len(adjacency)
    reach = [sum(1 << v for v in succ) for succ in adjacency]
    for k in range(n):
        bit = 1 << k
        row = reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row
    classes, transient = set(), []
    for u in range(n):
        if not reach[u] >> u & 1:
            transient.append(u)
            continue
        classes.add(frozenset(v for v in range(n)
                              if reach[u] >> v & 1 and reach[v] >> u & 1))
    return classes, transient


class ChainSweep:
    """The 293-node chain graph and its classes at four resolutions.

    The sample is fixed by definition (random_count=0); the seed only sets
    the order in which the resolutions are swept.
    """

    name = "chain-sweep"
    resolutions = (Fraction(1, 12), Fraction(1, 24), Fraction(1, 48),
                   Fraction(1, 96))
    nodes = 293

    def __init__(self, seed):
        self.system = AugSystem(N, "standard", 50)
        self.sample = construction_sample(self.system, extras_k_hi=12,
                                          orbits_k_hi=12, random_count=0)
        order = list(self.resolutions)
        random.Random(seed).shuffle(order)
        self.inputs = order

    def run(self, eps):
        graph = build_chain_graph(self.sample, eps)
        return graph, chain_classes(graph)

    def check(self, eps, out):
        graph, part = out
        if len(graph.nodes) != self.nodes:
            return f"graph has {len(graph.nodes)} nodes, expected {self.nodes}"
        index = {p: i for i, p in enumerate(graph.nodes)}
        got = {frozenset(index[p] for p in cls) for cls in part.classes}
        want, transient = _closure_partition(graph.adjacency)
        if got != want or len(got) != len(part.classes):
            return f"classes at eps={eps} disagree with the transitive closure"
        if [index[p] for p in part.transient] != transient:
            return f"transient nodes at eps={eps} disagree with the closure"
        return None

    def record(self, eps, out):
        graph, part = out
        keys = [canonical_key(p) for p in graph.nodes]
        edges = ";".join(f"{keys[u]}>{keys[v]}"
                         for u, succ in enumerate(graph.adjacency) for v in succ)
        classes = sorted(",".join(sorted(canonical_key(p) for p in cls))
                         for cls in part.classes)
        transient = ",".join(sorted(canonical_key(p) for p in part.transient))
        return (f"{eps} edges={_sha(edges)} classes={part.class_count()} "
                f"partition={_sha(';'.join(classes) + '|' + transient)}")


def _level_radius(point):
    """1/k for points over a level-k tagged orbit with k >= 3, else None."""
    if isinstance(point, ExtraPoint):
        return Fraction(1, point.k) if point.k >= 3 else None
    label = orbit_label(point.seq)
    if label is not None and label[0] >= 3:
        return Fraction(1, label[0])
    return None


class StableSweep:
    """Stable-class counts at x and f(x) over the n=3 acceptance sample.

    Items are ("count", i, side, point, eps) for the report at x (side 0)
    or f(x) (side 1), each encoded as the CLI would, and
    ("radius", i, 0, point, eps) for local_stable_radius on every fifth
    sample point. The f(x) item directly follows its x item, so check()
    can hold the monotonicity claim n(x, eps) <= n(f(x), eps).
    """

    name = "stable-sweep"
    radius_every = 5

    def __init__(self, seed):
        self.system = AugSystem(N, "standard", 50)
        sample = construction_sample(self.system, extras_k_hi=50,
                                     orbits_k_hi=12, random_count=200,
                                     seed=seed)
        inputs = []
        for i, x in enumerate(sample):
            level = _level_radius(x)
            radii = [QUARTER, Fraction(1, 8)] + ([level] if level else [])
            fx = aug_map(x)
            for eps in radii:
                inputs.append(("count", i, 0, x, eps))
                inputs.append(("count", i, 1, fx, eps))
            if i % self.radius_every == 0:
                inputs.append(("radius", i, 0, x, level or QUARTER))
        self.inputs = inputs
        self._here = None

    def run(self, item):
        kind, _, _, point, eps = item
        if kind == "radius":
            return local_stable_radius(self.system, point, eps)
        report = stable_class_count(self.system, point, eps)
        return report.count, encode(report)

    def check(self, item, out):
        kind, i, side, point, eps = item
        if kind == "radius":
            if not 0 < out <= eps:
                return f"radius {out} outside (0, {eps}] at sample point {i}"
            return None
        count, encoded = out
        if encoded["count"] != count:
            return f"encoded count {encoded['count']} != {count}"
        if not 1 <= count <= N:
            return f"count {count} outside [1, {N}] at sample point {i}"
        if side == 0:
            self._here = (i, eps, count)
        elif self._here is not None and self._here[:2] == (i, eps) \
                and self._here[2] > count:
            return f"count drops from {self._here[2]} to {count} along the orbit"
        return None

    def record(self, item, out):
        kind, i, side, _, eps = item
        value = out if kind == "radius" else out[0]
        return f"{kind} {i} {side} {eps} {value}"


def _decay_problem(decay, dists_at, thresholds):
    """Replay a decay report: every threshold reached and held from its index."""
    if [th for th, _ in decay] != list(thresholds):
        return "decay report does not list the requested thresholds"
    for th, idx in decay:
        if idx is None:
            return f"threshold {th} never reached"
        if any(d >= th for d in dists_at(idx)):
            return f"threshold {th} not held from index {idx}"
    return None


class DeepTracing:
    """Deep hop pseudo-orbits, one limit trace and one two-sided trace."""

    name = "deep-tracing"
    delta_exps = (8, 9, 10)
    orbits_per_depth = 16
    length = 50
    limit_thresholds = tuple(dyadic(t) for t in range(1, 6))
    two_sided_thresholds = tuple(dyadic(t) for t in range(1, 5))

    def __init__(self, seed):
        self.system = AugSystem(N, "standard", 50)
        rng = random.Random(seed)
        inputs = []
        for delta_exp in self.delta_exps:
            for r in range(self.orbits_per_depth):
                po = hop_pseudo_orbit(self.system, rng, length=self.length,
                                      delta_exp=delta_exp)
                inputs.append((f"hop-{delta_exp}-{r}", po))
        inputs.append(("limit", switching_limit_orbit(stages=10)))
        inputs.append(("two-sided", drifting_two_sided_orbit(half=512)))
        self.inputs = inputs

    def run(self, item):
        label, data = item
        if label == "limit":
            return limit_shadow(self.system, data,
                                thresholds=self.limit_thresholds)
        if label == "two-sided":
            return two_sided_limit_shadow(self.system, data,
                                          thresholds=self.two_sided_thresholds)
        po = PseudoOrbit(data.points, data.delta)
        traced = shadow_pseudo_orbit(po, QUARTER)
        return verify_shadow(po, traced, QUARTER)

    def check(self, item, out):
        label, data = item
        if label == "limit":
            pts = data.points
            return _decay_problem(
                out.decay,
                lambda idx: (aug_dist(aug_iterate(out.point, t), pts[t])
                             for t in range(idx, len(pts))),
                self.limit_thresholds)
        if label == "two-sided":
            for decay, sign, reach in ((out.past_decay, -1, -data.start),
                                       (out.future_decay, 1, data.end)):
                problem = _decay_problem(
                    decay,
                    lambda idx: (aug_dist(aug_iterate(out.point, sign * t),
                                          data.at(sign * t))
                                 for t in range(idx, reach + 1)),
                    self.two_sided_thresholds)
                if problem:
                    return f"{'past' if sign < 0 else 'future'} tail: {problem}"
            return None
        if not out.ok:
            return f"{label}: traced point misses by {out.worst_dist}"
        return None

    def record(self, item, out):
        return f"{item[0]} ok"


WORKLOADS = {cls.name: cls for cls in
             (MetricTriples, ChainSweep, StableSweep, DeepTracing)}
