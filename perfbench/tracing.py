"""Span tracing of nexpansive's public functions, from outside the package.

Each traced function is wrapped once, and the same wrapper is bound in
every module namespace that bound the original. The modules import each
other by name, so ``nexpansive.expansivity.first_mismatch_fwd`` is a
binding of its own and must be replaced too. Methods (``BiSeq.window``,
the ``BiSeq`` and ``PseudoOrbit`` constructors) are replaced on the class.

Every call records a span: name, start, end, parent span and item id.
Spans stay in flat arrays in memory and are written out once, after the
run. A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from time import perf_counter_ns

# (layer, metric name, module, attribute path in the module)
FUNCTIONS = (
    ("base", "first_mismatch_fwd", "nexpansive.base", "first_mismatch_fwd"),
    ("base", "first_mismatch_bwd", "nexpansive.base", "first_mismatch_bwd"),
    ("base", "base_dist", "nexpansive.base", "base_dist"),
    ("base", "window", "nexpansive.base", "BiSeq.window"),
    ("base", "biseq_init", "nexpansive.base", "BiSeq.__init__"),
    ("base", "assemble", "nexpansive.base", "assemble"),
    ("base", "flip_symbol", "nexpansive.base", "flip_symbol"),
    ("base", "base_shadow", "nexpansive.base", "base_shadow"),
    ("base", "glue_specification", "nexpansive.base", "glue_specification"),
    ("space", "aug_dist", "nexpansive.space", "aug_dist"),
    ("space", "project", "nexpansive.space", "project"),
    ("space", "aug_iterate", "nexpansive.space", "aug_iterate"),
    ("space", "canonical_key", "nexpansive.space", "canonical_key"),
    ("expansivity", "stable_class_count", "nexpansive.expansivity",
     "stable_class_count"),
    ("expansivity", "local_stable_radius", "nexpansive.expansivity",
     "local_stable_radius"),
    ("expansivity", "in_local_stable", "nexpansive.expansivity",
     "in_local_stable"),
    ("expansivity", "in_stable_set", "nexpansive.expansivity", "in_stable_set"),
    ("expansivity", "stabilization_index", "nexpansive.expansivity",
     "stabilization_index"),
    ("chains", "build_chain_graph", "nexpansive.chains", "build_chain_graph"),
    ("chains", "chain_classes", "nexpansive.chains", "chain_classes"),
    ("shadowing", "pseudo_orbit_validate", "nexpansive.shadowing",
     "PseudoOrbit.__init__"),
    ("shadowing", "shadow_pseudo_orbit", "nexpansive.shadowing",
     "shadow_pseudo_orbit"),
    ("shadowing", "verify_shadow", "nexpansive.shadowing", "verify_shadow"),
    ("shadowing", "shadow_specification", "nexpansive.shadowing",
     "shadow_specification"),
    ("shadowing", "limit_shadow", "nexpansive.shadowing", "limit_shadow"),
    ("shadowing", "two_sided_limit_shadow", "nexpansive.shadowing",
     "two_sided_limit_shadow"),
    ("samples", "random_triple", "nexpansive.samples", "random_triple"),
    ("samples", "construction_sample", "nexpansive.samples",
     "construction_sample"),
    ("samples", "hop_pseudo_orbit", "nexpansive.samples", "hop_pseudo_orbit"),
    ("samples", "switching_limit_orbit", "nexpansive.samples",
     "switching_limit_orbit"),
    ("samples", "drifting_two_sided_orbit", "nexpansive.samples",
     "drifting_two_sided_orbit"),
    ("codec", "encode", "nexpansive.codec", "encode"),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn, _, _ in FUNCTIONS)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# The probe window of first_mismatch_*; a call whose tail-period lcm is
# longer has to scan past it. Computed from the arguments, so it is a
# property of the input, not of the implementation.
PROBE_SYMBOLS = 16

DERIVED_METRICS = (
    ("base.first_mismatch.long_tail_share", "ratio"),
    ("base.periodic_cache.size", "count"),
    ("space.projection_cache.size", "count"),
    ("expansivity.in_local_stable.hit_ratio", "ratio"),
    ("chains.pairs_tested", "count"),
    ("chains.edge_yield", "ratio"),
    ("shadowing.verify_shadow.comparisons", "count"),
    ("trace.overhead", "ratio"),
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + list(DERIVED_METRICS)


SPAN_ARRAYS = (("start", "q"), ("end", "q"), ("name", "B"), ("parent", "i"),
               ("item", "i"))


def _lookup(module, path):
    """(owner, attribute, current value) for a FUNCTIONS entry."""
    owner_path, _, attr = path.rpartition(".")
    owner = sys.modules[module]
    if owner_path:
        owner = getattr(owner, owner_path)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps the functions in FUNCTIONS and records one span per call."""

    def __init__(self):
        self.spans = {field: array(code) for field, code in SPAN_ARRAYS}
        self.item_id = -1
        self._stack = [-1]
        self._installed = []
        self.long_tail_calls = 0
        self.stable_hits = 0
        self.edges_kept = 0
        self._wrappers = [self._wrap(i, *spec[2:]) for i, spec in
                          enumerate(FUNCTIONS)]

    def _count_long_tail_fwd(self, args):
        x, y = args[0], args[1]
        if math.lcm(len(x.right), len(y.right)) > PROBE_SYMBOLS:
            self.long_tail_calls += 1

    def _count_long_tail_bwd(self, args):
        x, y = args[0], args[1]
        if math.lcm(len(x.left), len(y.left)) > PROBE_SYMBOLS:
            self.long_tail_calls += 1

    def _count_stable_hit(self, result):
        if result:
            self.stable_hits += 1

    def _count_edges(self, graph):
        self.edges_kept += sum(len(succ) for succ in graph.adjacency)

    def _wrap(self, nid, module, path):
        _, _, fn = _lookup(module, path)
        before = {"base.first_mismatch_fwd": self._count_long_tail_fwd,
                  "base.first_mismatch_bwd": self._count_long_tail_bwd,
                  }.get(SPAN_NAMES[nid])
        after = {"expansivity.in_local_stable": self._count_stable_hit,
                 "chains.build_chain_graph": self._count_edges,
                 }.get(SPAN_NAMES[nid])
        start, end = self.spans["start"], self.spans["end"]
        name, parent, item = (self.spans["name"], self.spans["parent"],
                              self.spans["item"])
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            item.append(self.item_id)
            end.append(0)
            stack.append(idx)
            if before is not None:
                before(args)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_namespaces=()):
        """Bind every wrapper wherever its original is bound."""
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == "nexpansive" or key.startswith("nexpansive.")]
        namespaces += list(extra_namespaces)
        for (_, _, module, path), wrapper in zip(FUNCTIONS, self._wrappers):
            owner, attr, original = _lookup(module, path)
            if "." in path:
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._installed.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans (without trace.overhead)."""
        sp = self.spans
        start, end, name, parent = sp["start"], sp["end"], sp["name"], sp["parent"]
        n = len(name)
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        child_ns = array("q", bytes(8 * n))
        aug_dist, build, verify = (_ID["space.aug_dist"],
                                   _ID["chains.build_chain_graph"],
                                   _ID["shadowing.verify_shadow"])
        pairs = comparisons = 0
        # Children are recorded after their parent, so a reverse scan sees
        # every child of a span before the span itself.
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            k = name[i]
            calls[k] += 1
            self_ns[k] += dur - child_ns[i]
            p = parent[i]
            if p >= 0:
                child_ns[p] += dur
                if k == aug_dist:
                    if name[p] == build:
                        pairs += 1
                    elif name[p] == verify:
                        comparisons += 1
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = (calls[i], "count")
            out[f"{span}.self_s"] = (self_ns[i] / 1e9, "s")
        mismatch = (calls[_ID["base.first_mismatch_fwd"]]
                    + calls[_ID["base.first_mismatch_bwd"]])
        stable = calls[_ID["expansivity.in_local_stable"]]
        base = sys.modules["nexpansive.base"]
        space = sys.modules["nexpansive.space"]
        out.update({
            "base.first_mismatch.long_tail_share": (
                self.long_tail_calls / mismatch if mismatch else 0.0, "ratio"),
            "base.periodic_cache.size": (
                len(getattr(base, "_PERIODIC_CACHE", ())), "count"),
            "space.projection_cache.size": (
                len(getattr(space, "_PROJECTIONS", ())), "count"),
            "expansivity.in_local_stable.hit_ratio": (
                self.stable_hits / stable if stable else 0.0, "ratio"),
            "chains.pairs_tested": (pairs, "count"),
            "chains.edge_yield": (self.edges_kept / pairs if pairs else 0.0,
                                  "ratio"),
            "shadowing.verify_shadow.comparisons": (comparisons, "count"),
        })
        return out

    def write(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": SPAN_NAMES, "count": len(self.spans["name"]),
                  "arrays": SPAN_ARRAYS, "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_ARRAYS:
                self.spans[field].tofile(fh)


def load_spans(path):
    """Read a file written by Tracer.write: (header, {field: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            spans[field] = arr
    return header, spans
