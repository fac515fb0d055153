"""One benchmark process: set up one workload, then time or trace it.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (time the set-up only), ``measure`` (untraced passes for
at least SECONDS) or ``trace`` (one untraced and one traced pass). The
worker prints one JSON line. run.py starts a fresh worker for every call,
so each process runs one workload and its peak RSS belongs to it alone.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

TAIL_BEYOND = 10
TRACE_REF_CHUNKS = 10   # reference chunks read after a traced run
MAX_PROBLEMS = 5


class _RefPoint:
    """A small object, as the reference chunk's points."""

    __slots__ = ("k", "j", "s")

    def __init__(self, k, j, s):
        self.k, self.j, self.s = k, j, s

    def key(self):
        return self.k, self.j % self.k


class HostClock:
    """Host speed, read from a fixed pure-Python reference chunk.

    The host this was built on (2 vCPUs) drifts between a fast state and
    one up to 1.6x slower, for fractions of a second to minutes at a time,
    on both CPUs and with no steal time, so a whole run can fall in a slow
    spell. While the clock runs, a timer interrupts the process every
    INTERVAL_S to run one reference chunk, which calls no nexpansive code
    and is subtracted from any span it lands in. Times are reported scaled
    to a host on which one chunk takes REF_NOMINAL_S: a span of t seconds
    during which, give or take WINDOW_NS, the chunks took r (their median)
    reads as t * REF_NOMINAL_S / r.
    """

    REF_NOMINAL_S = 0.005
    INTERVAL_S = 0.05
    WINDOW_NS = 500_000_000

    def __init__(self):
        self.mid = []       # chunk midpoints, ns
        self.took = []      # chunk durations, ns
        self.total_ns = 0   # sum of took
        self._factors = {}

    @staticmethod
    def chunk():
        """Fractions, tuples, strings, small objects, sorting and dicts: the
        kinds of work nexpansive's code does, none of its code."""
        pts = [(i % 7, Fraction(i % 11, 13 + i % 3), "ab" * (i % 5))
               for i in range(200)]
        pts.sort(key=lambda p: (p[1], p[0]))
        groups = {}
        for a, f, s in pts:
            groups.setdefault((a, len(s)), []).append(f)
        top = sum(max(v) for v in groups.values())
        seqs = [tuple((i * j) % 3 for j in range(48)) for i in range(100)]
        same = sum(seqs[i][7:40] == seqs[i + 1][7:40] for i in range(99))
        objs = [_RefPoint(3 + i % 40, i, "01" * (i % 9)) for i in range(700)]
        first = {}
        for o in objs:
            first.setdefault(o.key(), o)
        ranked = sorted(objs, key=_RefPoint.key)
        near = sum(a.s[:5] == b.s[:5] for a, b in zip(ranked, ranked[1:]))
        return top, same, len(first), near

    def read(self):
        t = time.perf_counter_ns()
        self.chunk()
        e = time.perf_counter_ns()
        self.mid.append((t + e) // 2)
        self.took.append(e - t)
        self.total_ns += e - t

    def _tick(self, signum, frame):
        self.read()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def start(self):
        self.read()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.read()

    def mark(self):
        return len(self.took), self.total_ns, time.perf_counter_ns()

    def since(self, mark):
        """The span from mark to now: (chunks read before it, chunks read
        by its end, its ns without the chunks that ran inside it)."""
        k0, c0, t0 = mark
        return k0, len(self.took), time.perf_counter_ns() - t0 - (self.total_ns - c0)

    def factor(self, k0, k1):
        """REF_NOMINAL_S over the median time of the chunks within
        WINDOW_NS of a span that began after k0 chunks and ended after k1.
        Cached: call once those chunks have been read."""
        key = (k0, k1)
        if key not in self._factors:
            mid = self.mid
            lo = bisect.bisect_left(mid, mid[max(k0 - 1, 0)] - self.WINDOW_NS)
            hi = bisect.bisect_right(mid, mid[min(k1, len(mid) - 1)] + self.WINDOW_NS)
            self._factors[key] = (self.REF_NOMINAL_S * 1e9
                                  / statistics.median(self.took[lo:hi]))
        return self._factors[key]

    def scaled_ns(self, span):
        k0, k1, ns = span
        return ns * self.factor(k0, k1)

    def ref_s(self):
        return statistics.median(self.took) / 1e9


def reference_digest(workload, seed):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


class Outcome:
    """Checks pass outputs: item checks, agreement with the first pass, and
    the first pass's digest against a recorded reference."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.first = None
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, text):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def add_pass(self, items, outs):
        records = []
        for item, (out, err) in zip(items, outs):
            self.attempted += 1
            if err is not None:
                records.append(None)
                self._fail(f"{type(err).__name__}: {err}")
                continue
            problem = self.wl.check(item, out)
            rec = self.wl.record(item, out)
            if (problem is None and self.first is not None
                    and rec != self.first[len(records)]):
                problem = f"output differs from the first pass: {rec}"
            records.append(rec)
            if problem is not None:
                self._fail(problem)
        if self.first is None:
            self.first = records
            text = "\n".join("error" if r is None else r for r in records)
            self.digest = hashlib.sha256(text.encode()).hexdigest()
            if self.reference is not None and self.digest != self.reference:
                self.problems.append(
                    f"digest {self.digest} != reference {self.reference}")

    def summary(self):
        if self.reference is not None and self.digest != self.reference:
            failed = self.attempted
        else:
            failed = self.failed
        return {"attempted": self.attempted, "failed": failed,
                "problems": self.problems, "digest": self.digest,
                "reference_digest": self.reference}


def run_items(wl, items, outs, times, stop=None, clock=None):
    """Run items in order, appending (output, error) to outs and the item
    time in ns to times, or with a running clock its span (see
    HostClock.since). Stops early when stop() turns true."""
    for item in items:
        mark = clock.mark() if clock else time.perf_counter_ns()
        try:
            outs.append((wl.run(item), None))
        except Exception as exc:  # an item that raises counts as failed
            outs.append((None, exc))
        times.append(clock.since(mark) if clock
                     else time.perf_counter_ns() - mark)
        if stop is not None and stop():
            break


def measure(wl, seconds, reference, clock=None):
    """Repeated passes over the inputs for at least ``seconds``, with the
    clock running (a new one if none is given); stops it.

    After the first full pass the run stops at the first item boundary past
    ``seconds``. Each item is taken at its median time over the run's
    repetitions, each repetition scaled by the host clock (see HostClock).
    wall_s is the sum of those medians, checks_per_s the item count over
    it, check_p50_ms their median, and check_tail_ms the highest percentile
    of them with TAIL_BEYOND items beyond it, or the slowest item where a
    pass has too few items for that percentile to reach the 90th.

    A pass's times are scaled once the next pass has ended, when the
    chunks after them have been read, and kept as one array per pass, so
    that the timings add little to the worker's peak RSS.
    """
    if clock is None:
        clock = HostClock()
        clock.start()
    outcome = Outcome(wl, reference)
    scaled, pass_s, pending = [], [], []
    passes = 0
    begin = time.perf_counter()

    def done():
        return passes >= 1 and time.perf_counter() - begin >= seconds

    while True:
        outs, times = [], []
        run_items(wl, wl.inputs, outs, times, stop=done, clock=clock)
        outcome.add_pass(wl.inputs, outs)
        if pending:
            scaled.append(array("d", map(clock.scaled_ns, pending)))
        if len(times) == len(wl.inputs):
            pass_s.append(sum(ns for _, _, ns in times) / 1e9)
        pending = times
        passes += 1
        if done():
            break
    clock.stop()
    scaled.append(array("d", map(clock.scaled_ns, pending)))
    ms = sorted(statistics.median(p[i] for p in scaled if i < len(p)) / 1e6
                for i in range(len(wl.inputs)))
    n = len(ms)
    tail = n - TAIL_BEYOND - 1 if n >= 10 * TAIL_BEYOND else n - 1
    wall_s = sum(ms) / 1e3
    return {
        "wall_s": wall_s,
        "checks_per_s": n / wall_s,
        "check_p50_ms": statistics.median(ms),
        "check_tail_ms": ms[tail],
        "tail_percentile": 100 * (tail + 1) / n,
        "unscaled_pass_s": statistics.median(pass_s),
        "host_ref_s": clock.ref_s(),
        "ref_chunks": len(clock.took),
        "items": n,
        "repetitions": sum(map(len, scaled)),
        "passes": passes,
        **outcome.summary(),
    }


def trace(wl, tracer, workload, reference):
    """One untraced pass, then one traced pass; per-layer metrics."""
    import workloads
    tracer.uninstall()
    t = time.perf_counter()
    run_items(wl, wl.inputs, [], [])
    untraced = time.perf_counter() - t
    tracer.install([workloads])
    outs = []
    t = time.perf_counter()
    for idx, item in enumerate(wl.inputs):
        tracer.item_id = idx
        run_items(wl, [item], outs, [])
    traced = time.perf_counter() - t
    tracer.uninstall()
    outcome = Outcome(wl, reference)
    outcome.add_pass(wl.inputs, outs)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}.bin"
    tracer.write(path)
    return {"layer_metrics": metrics, "untraced_wall_s": untraced,
            "traced_wall_s": traced, "spans": len(tracer.spans["name"]),
            "span_file": str(path.relative_to(ROOT)), **outcome.summary()}


def main(argv):
    mode, workload, seed, seconds = argv[1], argv[2], int(argv[3]), float(argv[4])
    clock = HostClock()
    if mode != "trace":
        clock.start()
    mark = clock.mark()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install([workloads])
    wl = workloads.WORKLOADS[workload](seed)
    setup = clock.since(mark)
    reference = reference_digest(workload, seed)
    if mode == "setup":
        clock.stop()
        out = {}
    elif mode == "measure":
        out = measure(wl, seconds, reference, clock)
    elif mode == "trace":
        out = trace(wl, tracer, workload, reference)
        for _ in range(TRACE_REF_CHUNKS):
            clock.read()
        out["host_ref_s"] = clock.ref_s()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["setup_s"] = clock.scaled_ns(setup) / 1e9
    out["unscaled_setup_s"] = setup[2] / 1e9
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
